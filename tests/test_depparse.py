"""Dependency parser fixtures (FIXTURES F3): assert the specific relations
the OpenIE/KBP pattern libraries consume."""
from corenlp_ray.stages.depparse import depparse_batch, parse_sentence
from corenlp_ray.stages.ner import ner_batch
from corenlp_ray.stages.pos import pos_batch, tag_sentence
from corenlp_ray.stages.tokenize import tokenize, tokenize_ssplit_batch
from corenlp_ray.sources.pages import synth_pages_table


def parse(text):
    words = [t[0] for t in tokenize(text)]
    tags = tag_sentence(words)
    heads, labels = parse_sentence(words, tags)
    return words, heads, labels


def rel(words, heads, labels):
    """{(head_word, label, child_word)}"""
    out = set()
    for i, (h, l) in enumerate(zip(heads, labels)):
        out.add((words[h] if h >= 0 else "ROOT", l, words[i]))
    return out


def test_svo():
    w, h, l = parse("Some cats have tails.")
    r = rel(w, h, l)
    assert ("ROOT", "root", "have") in r
    assert ("have", "nsubj", "cats") in r
    assert ("have", "obj", "tails") in r
    assert ("cats", "det", "Some") in r


def test_passive_with_oblique():
    w, h, l = parse("John Smith was born in Springfield.")
    r = rel(w, h, l)
    assert ("ROOT", "root", "born") in r
    assert ("born", "nsubj:pass", "Smith") in r
    assert ("born", "aux:pass", "was") in r
    assert ("born", "obl", "Springfield") in r
    assert ("Springfield", "case", "in") in r
    assert ("Smith", "compound", "John") in r


def test_copula_np_predicate():
    w, h, l = parse("Mary Johnson is the chief executive officer of Initech.")
    r = rel(w, h, l)
    assert ("ROOT", "root", "officer") in r
    assert ("officer", "cop", "is") in r
    assert ("officer", "nsubj", "Johnson") in r
    assert ("officer", "det", "the") in r
    # "of Initech" attaches to the predicate nominal
    assert ("officer", "nmod", "Initech") in r or ("officer", "obl", "Initech") in r
    assert ("Initech", "case", "of") in r


def test_possessive():
    w, h, l = parse("IBM's research group studies robotics.")
    r = rel(w, h, l)
    assert ("ROOT", "root", "studies") in r
    assert ("studies", "nsubj", "group") in r
    assert ("group", "nmod:poss", "IBM") in r
    assert ("IBM", "case", "'s") in r
    assert ("studies", "obj", "robotics") in r


def test_verb_with_pp():
    w, h, l = parse("He works for Initech.")
    r = rel(w, h, l)
    assert ("ROOT", "root", "works") in r
    assert ("works", "nsubj", "He") in r
    assert ("works", "obl", "Initech") in r
    assert ("Initech", "case", "for") in r


def test_transitive_with_year():
    w, h, l = parse("Patricia Davis founded Hooli in 2004.")
    r = rel(w, h, l)
    assert ("ROOT", "root", "founded") in r
    assert ("founded", "nsubj", "Davis") in r
    assert ("founded", "obj", "Hooli") in r
    assert ("founded", "obl", "2004") in r


def test_married_passive():
    w, h, l = parse("John Smith is married to Mary Johnson.")
    r = rel(w, h, l)
    assert ("ROOT", "root", "married") in r
    assert ("married", "nsubj:pass", "Smith") in r
    assert ("married", "obl", "Johnson") in r
    assert ("Johnson", "case", "to") in r


def test_tree_wellformed_on_pages():
    tbl = synth_pages_table(n=10, seed=13)
    out = depparse_batch(ner_batch(pos_batch(tokenize_ssplit_batch(tbl))))
    for i in range(out.num_rows):
        heads = out.column("dep_head")[i].as_py()
        labels = out.column("dep_label")[i].as_py()
        sbs = out.column("sent_begin")[i].as_py()
        ses = out.column("sent_end")[i].as_py()
        n = len(heads)
        assert len(labels) == n
        for b, e in zip(sbs, ses):
            roots = [k for k in range(b, e) if heads[k] == -1]
            assert len(roots) >= 1  # at least one root per sentence
            for k in range(b, e):
                h = heads[k]
                assert h == -1 or (b <= h < e)  # heads stay within sentence
                assert h != k


def test_currency_chunk_then_pp():
    # the "$" chunk is added beside the "2 billion deal" chunk; the PP
    # after it still finds its own complement
    w, h, l = parse("Acme signed a $2 billion deal with Microsoft.")
    r = rel(w, h, l)
    assert ("Microsoft", "case", "with") in r
    assert ("signed", "obl", "Microsoft") in r
    assert ("deal", "nummod", "billion") in r


def test_currency_list():
    w, h, l = parse("He paid $5, $6 and $7.")
    dollars = [k for k, x in enumerate(w) if x == "$"]
    assert len(dollars) == 3
    first, second, third = dollars
    assert (h[first], l[first]) == (w.index("paid"), "obj")
    assert (h[second], l[second]) == (first, "conj")
    assert (h[third], l[third]) == (first, "conj")
    assert (h[third - 1], l[third - 1]) == (third, "cc")


def test_currency_measure_phrase():
    w, h, l = parse("The company is $65 million old.")
    r = rel(w, h, l)
    assert ("ROOT", "root", "old") in r
    assert ("old", "obl:npmod", "$") in r
    assert ("old", "nsubj", "company") in r
