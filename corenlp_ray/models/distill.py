"""Self-distillation of the four statistical slots from the rule
cascades' own annotations — the in-sandbox stand-in for licensed
training corpora. Real corpora drop into the same train() entry points
(PerceptronTagger/TransitionParser/KbpClassifier/CorefRanker.train);
this module only exercises the weighted INFERENCE paths
(register_weighted_models) end-to-end.
"""
from __future__ import annotations

import os


def distill_and_register(tmpdir: str) -> None:
    """Distill every statistical slot from the cascade's own
    annotations over a small doc sample and register every weighted
    path, so pipelines built afterwards run the PINNED-WEIGHT stages
    (the reference's pos.model/depparse.model/.ser.gz configuration).
    Real licensed corpora drop into the same train() entry points; this
    self-distillation only exercises the weighted inference path, not
    its accuracy."""
    from corenlp_ray.api import Document
    from corenlp_ray.models.coref_ranker import CorefRanker
    from corenlp_ray.models.kbp_classifier import (KbpClassifier,
                                                   annotated_sentences)
    from corenlp_ray.models.perceptron_tagger import PerceptronTagger
    from corenlp_ray.models.transition_parser import TransitionParser
    from corenlp_ray.pipelines.kg import register_weighted_models

    docs = [
        "John Smith works for Acme Corp. He leads Acme Corp.",
        "Mary Johnson was born in Springfield. Johnson lives there.",
        "Robert Brown studies robotics. Brown visited Georgetown.",
        "Globex Inc. acquired Initech. Globex Inc. grew quickly.",
        "Patricia Davis met Linda Martinez. Davis greeted Martinez.",
        "Stark Industries is headquartered in Madison.",
    ]
    sents, kbp_sents, coref_docs = [], [], []
    trees, relation_rows = [], []
    from corenlp_ray.stages.parse_tree import parse_tree_batch

    for text in docs:
        d = Document(text)
        d._need(*Document._transitive("kbp"))
        r = d._row
        trees.extend(
            parse_tree_batch(d._tbl).column("parse_tree").to_pylist()[0])
        relation_rows.append({**r, "url": "0"})
        men = list(zip(r["men_begin"], r["men_end"], r["men_ner"],
                       r["men_norm"]))
        coref_docs.append((r["tok_word"], r["tok_pos"], r["tok_sent"],
                           men))
        kbp_sents.extend(annotated_sentences(r))
        for b, e in zip(r["sent_begin"], r["sent_end"]):
            sents.append((r["tok_word"][b:e], r["tok_pos"][b:e]))
    from corenlp_ray.models.crf_ner import CrfNER
    from corenlp_ray.models.pcfg_parser import PcfgParser
    from corenlp_ray.models.relation_classifier import RelationClassifier
    from corenlp_ray.models.rntn import RNTN

    paths = {}
    for name, model in (
            ("pos", PerceptronTagger.distill([w for w, _ in sents],
                                             n_iter=4)),
            ("dep", TransitionParser.distill(sents, n_iter=3)),
            ("kbp", KbpClassifier.distill(kbp_sents, n_iter=4)),
            ("coref", CorefRanker.distill(coref_docs, n_iter=4)),
            ("parse", PcfgParser.distill(sents)),
            ("ner", CrfNER.distill(sents, n_iter=10)),
            ("sentiment", RNTN.distill(trees, d=8, n_epochs=30)),
            ("relation", RelationClassifier.distill(relation_rows,
                                                    n_iter=4))):
        p = os.path.join(tmpdir, f"{name}.json")
        model.save(p)
        paths[name] = p
    register_weighted_models(pos_model_path=paths["pos"],
                             dep_model_path=paths["dep"],
                             kbp_model_path=paths["kbp"],
                             coref_model_path=paths["coref"],
                             parse_model_path=paths["parse"],
                             ner_model_path=paths["ner"],
                             sentiment_model_path=paths["sentiment"],
                             relation_model_path=paths["relation"])
