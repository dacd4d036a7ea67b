"""Tokenize once per distinct paragraph: under the default "two" newline
policy ``tokenize_ssplit_batch`` cuts each text at its blank-line runs
and tokenizes every distinct chunk once per call. Its seven tok_*/sent_*
columns must equal one whole-text pass whose forced sentence breaks are
the token gaps holding two or more newlines."""
import json
import pathlib
import sys

import hypothesis.strategies as st
import pyarrow as pa
import pytest
from hypothesis import given, settings

from corenlp_ray.stages.tokenize import (ssplit, tokenize,
                                         tokenize_ssplit_batch)

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAMES = ("tok_word", "tok_orig", "tok_begin", "tok_end", "tok_sent",
         "sent_begin", "sent_end")


def _whole_text(text: str):
    """The reference: one tokenize over the whole text, a forced break
    before each token whose gap holds two or more newlines."""
    toks = tokenize(text)
    words = [t[0] for t in toks]
    breaks = {k for k in range(1, len(toks))
              if text[toks[k - 1][3]:toks[k][2]].count("\n") >= 2}
    sents = ssplit(words, breaks)
    tok_sent = [si for si, (b, e) in enumerate(sents) for _ in range(b, e)]
    return [words, [t[1] for t in toks], [t[2] for t in toks],
            [t[3] for t in toks], tok_sent, [s[0] for s in sents],
            [s[1] for s in sents]]


def _chunked(texts):
    """One batch call over ``texts`` (all rows share the call's memo);
    the text list goes in through ``cols``, so texts that are not valid
    UTF-8 (lone surrogates) need no Arrow round trip."""
    cols = {"text": list(texts)}
    tokenize_ssplit_batch(pa.table({"row": list(range(len(texts)))}),
                          cols=cols)
    return [[cols[n][r] for n in NAMES] for r in range(len(texts))]


def _assert_same(texts):
    for text, got in zip(texts, _chunked(texts)):
        assert got == _whole_text(text), repr(text[:200])


def _perfbench_calls():
    sys.path.insert(0, str(ROOT / "scripts"))
    import sentence_repeats

    yield from sentence_repeats.web_calls(1, 16)
    yield from sentence_repeats.long_calls(1)
    yield from sentence_repeats.kg_calls()


def test_equals_whole_text_on_perfbench_pages():
    n = 0
    for pages in _perfbench_calls():
        _assert_same(pages.column("text").to_pylist())
        n += pages.num_rows
    assert n > 1000


def test_equals_whole_text_on_ptb_corpus():
    inputs = json.loads((ROOT / "tests" / "data" / "ptb_gold.json")
                        .read_text())["inputs"]
    assert len(inputs) == 80
    _assert_same(inputs)
    # the cases joined into paragraphs, so chunks repeat within the call
    _assert_same(["\n\n".join(inputs[i:i + 5]) for i in range(0, 80, 5)]
                 + ["\n \x1f\n".join(inputs[i:i + 3])
                    for i in range(0, 80, 3)])


_PIECES = ["\x1f", "\r\n\n", "\n", "\n\n", "\n \n", " ", "\t", "\r",
           "Yahoo!", '"', "'", "No.", "Corp.", "U.S.", "5", "Ann", "said",
           ".", "!", "?", "(", ")", "...", "www.x.com", "can't", "\ud800"]
_texts = st.tuples(st.sampled_from(["", "\n\n", "\n \n\x1f"]),
                   st.lists(st.sampled_from(_PIECES), max_size=30),
                   st.sampled_from(["", "\n\n", "\x1f\n\n "])).map(
    lambda t: t[0] + "".join(t[1]) + t[2])


@settings(max_examples=1500, deadline=None)
@given(st.lists(_texts, min_size=1, max_size=4))
def test_equals_whole_text_fuzz(texts):
    _assert_same(texts + texts[:1])


@pytest.mark.parametrize("policy", ["never", "always"])
def test_other_policies_tokenize_whole_text(policy):
    text = "Ann said.\n\nYahoo! rose\n5 points."
    cols = {"text": [text]}
    tokenize_ssplit_batch(pa.table({"row": [0]}), newline_policy=policy,
                          cols=cols)
    assert cols["tok_begin"][0] == [t[2] for t in tokenize(text)]
    assert len(cols["sent_begin"][0]) == {"never": 2, "always": 3}[policy]
