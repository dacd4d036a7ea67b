"""Sequence-NER model tests (the trainable CRF slot —
models/perceptron_ner.py): CoNLL-format trainability, span-F1 via the
eval harness, distillation, determinism, persistence."""
import pytest

from corenlp_ray.models.eval import span_prf
from corenlp_ray.models.perceptron_ner import PerceptronNER
from corenlp_ray.sources.conll2003 import parse_conll2003

_CONLL = """EU NNP I-NP I-ORG
rejects VBZ I-VP O
German JJ I-NP I-MISC
call NN I-NP O

Peter NNP I-NP I-PER
Blackburn NNP I-NP I-PER
lives VBZ I-VP O
in IN I-PP O
Brussels NNP I-NP I-LOC

Germany NNP I-NP I-LOC
beat VBD I-VP O
France NNP I-NP I-LOC
yesterday NN I-NP O

John NNP I-NP I-PER
Smith NNP I-NP I-PER
joined VBD I-VP O
Microsoft NNP I-NP I-ORG
"""


@pytest.fixture(scope="module")
def conll_corpus():
    return parse_conll2003(_CONLL)


def test_trains_on_conll_shape(conll_corpus):
    m = PerceptronNER.train(conll_corpus, n_iter=15)
    pred = [m.tag(w, p) for w, p, _ in conll_corpus]
    gold = [n for _, _, n in conll_corpus]
    assert span_prf(gold, pred)["f1"] == 1.0   # fits training data


def test_distillation_matches_cascade():
    from corenlp_ray.stages.ner import ner_sentence
    from corenlp_ray.stages.pos import tag_sentence

    sents = ["President Obama visited Paris .",
             "John Smith joined Acme Corp. in Chicago .",
             "Mary Jones lives in France .",
             "The committee met yesterday ."]
    tagged = [(s.split(), tag_sentence(s.split())) for s in sents]
    m = PerceptronNER.distill(tagged, n_iter=10)
    agree = total = 0
    for words, pos in tagged:
        want, _ = ner_sentence(words, pos)
        got = m.tag(words, pos)
        agree += sum(a == b for a, b in zip(got, want))
        total += len(words)
    assert agree / total >= 0.9


def test_training_deterministic(conll_corpus):
    m1 = PerceptronNER.train(conll_corpus, n_iter=4)
    m2 = PerceptronNER.train(conll_corpus, n_iter=4)
    assert m1.weights == m2.weights


def test_save_load_roundtrip(tmp_path, conll_corpus):
    m = PerceptronNER.train(conll_corpus, n_iter=4)
    p = str(tmp_path / "ner.json")
    m.save(p)
    m2 = PerceptronNER.load(p)
    w, pos, _ = conll_corpus[0]
    assert m2.tag(w, pos) == m.tag(w, pos)


def test_generalizes_to_unseen_surface(conll_corpus):
    """Shape/context features must type an unseen capitalized token in
    a person-like context (the generalization a bare gazetteer lacks)."""
    m = PerceptronNER.train(conll_corpus, n_iter=15)
    tags = m.tag("Hans Gruber lives in Hamburg".split(),
                 ["NNP", "NNP", "VBZ", "IN", "NNP"])
    assert tags[0] == "I-PER" and tags[1] == "I-PER"
    assert tags[4] == "I-LOC"


def test_weighted_ner_stage_combines_model_and_value_rules(tmp_path):
    """WeightedNerTagger: model decides entity types, cascade keeps the
    value types + normalizations (NERCombinerAnnotator order)."""
    import pyarrow as pa

    from corenlp_ray.models.perceptron_ner import PerceptronNER
    from corenlp_ray.stages.ner import WeightedNerTagger
    from corenlp_ray.stages.pos import tag_sentence

    sents = [("John Smith visited Paris .".split(), None),
             ("Acme Corp. hired Mary Jones .".split(), None)]
    sents = [(w, tag_sentence(w)) for w, _ in sents]
    m = PerceptronNER.distill(sents, n_iter=8)
    p = str(tmp_path / "ner.json")
    m.save(p)
    stage = WeightedNerTagger(model_path=p)
    w = "John Smith visited Paris on January 5 , 2003 .".split()
    t = tag_sentence(w)
    batch = pa.Table.from_pylist([{
        "tok_word": w, "tok_pos": t,
        "sent_begin": [0], "sent_end": [len(w)],
    }])
    out = stage(batch)
    mens = {" ".join(w[b:e]): (ty, nv) for b, e, ty, nv in zip(
        out.column("men_begin")[0].as_py(),
        out.column("men_end")[0].as_py(),
        out.column("men_ner")[0].as_py(),
        out.column("men_norm")[0].as_py())}
    assert mens.get("John Smith", ("", ""))[0] == "PERSON"     # model
    # value mention + normalization comes from the cascade
    assert any(ty == "DATE" and nv == "2003-01-05"
               for ty, nv in mens.values())


def test_register_weighted_ner(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from corenlp_ray.models.perceptron_ner import PerceptronNER
    from corenlp_ray.pipelines import kg as kg_mod
    from corenlp_ray.pipelines import registry
    from corenlp_ray.pipelines.registry import apply
    from corenlp_ray.stages.pos import tag_sentence

    w = "John Smith visited Paris .".split()
    m = PerceptronNER.distill([(w, tag_sentence(w))], n_iter=8)
    p = str(tmp_path / "ner.json")
    m.save(p)
    saved = registry.get("ner")
    try:
        kg_mod.register_weighted_models(ner_model_path=p)
        docs = rd.from_arrow(pa.Table.from_pydict(
            {"url": ["a"], "text": ["John Smith visited Paris."]},
            schema=pa.schema([("url", pa.string()),
                              ("text", pa.string())])))
        ann = apply(docs, ("tokenize", "pos", "ner"))
        rows = ann.take_all()
        assert "PERSON" in rows[0]["men_ner"]
    finally:
        registry.register(saved)
