"""Averaged-perceptron POS tagger tests (the trainable MaxentTagger
slot — models/perceptron_tagger.py). Since the licensed PTB cannot ship,
the trainer is verified on (a) the reference's own CoNLL-U example data
and (b) distillation against the deterministic cascade, plus
determinism and persistence round-trips."""
import pytest

from corenlp_ray.models.perceptron_tagger import (
    PerceptronTagger, features, read_conllu)

_CONLLU = ("/root/reference/data/edu/stanford/nlp/pipeline/"
           "en-example.conllu")

_SENTS = [
    "The quick brown fox jumped over the lazy dog .",
    "President Obama visited Paris last week .",
    "She sells twenty shares of Acme Corp. for $ 5 million .",
    "The committee has approved the merger agreement .",
    "Investors bought bonds and sold stocks yesterday .",
    "A spokesman for the company declined to comment .",
    "Revenue rose 12 % to $ 3.4 billion in the quarter .",
    "The new factory will employ 500 workers next year .",
    "Analysts expect growth to slow in the second half .",
    "He said the bank would cut costs and raise capital .",
]


@pytest.fixture(scope="module")
def distilled():
    return PerceptronTagger.distill([s.split() for s in _SENTS])


def test_trains_on_reference_conllu():
    corpus = read_conllu(_CONLLU)
    assert corpus, "reference example corpus must parse"
    m = PerceptronTagger.train(corpus, n_iter=12)
    # trainer must fit its own training data exactly (capacity check)
    for words, gold in corpus:
        assert m.tag(words) == gold


def test_distillation_matches_teacher(distilled):
    from corenlp_ray.stages.pos import tag_sentence

    agree = total = 0
    for s in _SENTS:
        words = s.split()
        got = distilled.tag(words)
        want = tag_sentence(words)
        agree += sum(g == w for g, w in zip(got, want))
        total += len(words)
    assert agree / total >= 0.95


def test_training_is_deterministic():
    corpus = read_conllu(_CONLLU)
    m1 = PerceptronTagger.train(corpus, n_iter=4)
    m2 = PerceptronTagger.train(corpus, n_iter=4)
    assert m1.weights == m2.weights


def test_save_load_roundtrip(tmp_path, distilled):
    p = str(tmp_path / "pos.json")
    distilled.save(p)
    m2 = PerceptronTagger.load(p)
    words = _SENTS[1].split()
    assert m2.tag(words) == distilled.tag(words)


def test_weighted_stage_pins_model(tmp_path, distilled, ray_session):
    import ray.data as rd

    from corenlp_ray.stages.pos import WeightedPosTagger, pos_batch

    p = str(tmp_path / "pos.json")
    distilled.save(p)
    words = _SENTS[0].split()
    ds = rd.from_items([{
        "tok_word": words, "sent_begin": [0], "sent_end": [len(words)]}])
    out = ds.map_batches(WeightedPosTagger,
                         fn_constructor_kwargs={"model_path": p},
                         batch_format="pyarrow",
                         concurrency=1).take_all()
    tags = out[0]["tok_pos"]
    assert len(tags) == len(words)
    assert tags[0] == "DT" and tags[3] in ("NN", "NNP")


def test_feature_template_shape():
    f = features(["The", "dog", "ran"], 1, "DT", "<s>")
    assert "w=dog" in f and "t-1=DT" in f and "w-1=the" in f
    assert any(x.startswith("s3=") for x in f)


def test_registry_weighted_swap(tmp_path, distilled, ray_session):
    """register_weighted_models re-points the 'pos' stage at trained
    weights; the demand-driven pipeline then runs the weighted actor."""
    import ray.data as rd

    from corenlp_ray.pipelines import kg as _kg
    from corenlp_ray.pipelines.registry import apply, get

    p = str(tmp_path / "pos.json")
    distilled.save(p)
    orig = get("pos")
    try:
        _kg.register_weighted_models(pos_model_path=p)
        st = get("pos")
        assert st.fn.__name__ == "WeightedPosTagger"
        inst = st.fn(**st.init_kwargs)
        words = "The quick brown fox jumped .".split()
        ds = rd.from_items([{
            "tok_word": words, "sent_begin": [0],
            "sent_end": [len(words)]}])
        out = ds.map_batches(lambda b: inst(b),
                             batch_format="pyarrow").take_all()
        assert len(out[0]["tok_pos"]) == len(words)
    finally:
        from corenlp_ray.pipelines.registry import register
        register(orig)
