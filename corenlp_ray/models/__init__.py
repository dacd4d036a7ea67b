"""Trainable model components (weights pinned per chain at inference).

The reference ships trained model files for its POS/NER/parse stages;
this package provides the equivalent trainable infrastructure with
deterministic training entry points, so real treebank/CoNLL weights can
be dropped in where licensing allows.
"""
