"""Per-document cost stays bounded: a page that repeats one sentence
2,000 times, or holds one sentence of 50k tokens, costs seconds, not
minutes, and no adversarial page makes ``FusedDocAnnotator`` raise or
stall.

The repeated pages run in a subprocess with a timeout, so an all-pairs
step cannot hang the suite; the fuzzed pages run under an alarm."""
import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager

import hypothesis.strategies as st
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings

from corenlp_ray.pipelines.kg import FusedDocAnnotator
from corenlp_ray.sources.pages import PAGES_SCHEMA
from corenlp_ray.stages.openie import TRIPLES_SCHEMA

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REPEATED = {
    "entity": "John Smith of Acme Corp. said Smith and Acme will open in "
              "Paris. ",
    "pronoun": "John Smith said he would visit Acme Corp. and it agreed "
               "with them. ",
}
# one clause without terminal punctuation, repeated 5,000 times:
# 50k tokens and 5,000 main verbs in a single sentence
GIANT_SENTENCE = ("the quick brown fox jumps over the lazy dog and ", 5000)
PAGE_BUDGET_S = 10.0

_CHILD = """
import json, sys, time
import pyarrow as pa
from corenlp_ray.pipelines.kg import FusedDocAnnotator
from corenlp_ray.sources.pages import PAGES_SCHEMA
f = FusedDocAnnotator()
out = {}
for name, (sentence, repeats) in json.loads(sys.argv[1]).items():
    text = sentence * repeats
    page = pa.Table.from_pylist([{"url": "u", "warc_ts": 0,
        "html": text.encode(), "text": text, "lang": "en"}],
        schema=PAGES_SCHEMA)
    f(page.slice(0, 0))
    t0 = time.perf_counter()
    rows = f(page).num_rows
    out[name] = [time.perf_counter() - t0, rows]
print(json.dumps(out))
"""


def test_repeated_sentence_pages_cost_bounded():
    """×2000 pages: well under a second each with blocked coref; the
    all-pairs sieves took about 75 s on the entity page. The giant
    sentence takes about 1.5 s with depparse's subject index; its
    per-verb scans over the whole sentence took about 44 s."""
    env = dict(os.environ, PYTHONPATH=REPO)
    pages = {name: (s, 2000) for name, s in REPEATED.items()}
    pages["giant_sentence"] = GIANT_SENTENCE
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(pages)],
        capture_output=True, text=True, timeout=60, cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, (seconds, rows) in got.items():
        assert rows > 0, name
        assert seconds < PAGE_BUDGET_S, (name, seconds)


@contextmanager
def wall_budget(seconds: int):
    def on_alarm(signum, frame):
        raise TimeoutError(f"page took over {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


_ODD = st.sampled_from(["\x00", "\x01", "\x1f", "\x7f", "\u200b", "\u200d",
                        "\ufeff", "\u00a0", "\u202e", "\r", "\t", "\n",
                        " ", ".", ",", "John", "Smith", "he", "it", "Acme",
                        "Corp.", "said", "Paris"])
_BOILERPLATE = [
    "Home | About us | Contact | Privacy Policy | Terms of Use | "
    "Copyright 2024 Example Inc. All rights reserved. ",
    "Share on Facebook . Share on Twitter . Subscribe to our newsletter "
    "for updates from Acme Corp. today . ",
]
_COREF_HEAVY = list(REPEATED.values()) + [
    "Mr. John Smith met Dr. Mary Smith of Smith Group Inc. and she told "
    "him that they and it would stay. "]

pages = st.one_of(
    st.none(),
    st.just(""),
    st.lists(_ODD, max_size=200).map("".join),
    # boilerplate of about 50k tokens in short sentences
    st.sampled_from(_BOILERPLATE).map(
        lambda s: s * (50_000 // len(s.split()))),
    st.tuples(st.sampled_from(_COREF_HEAVY), st.integers(100, 800))
    .map(lambda t: t[0] * t[1]),
    # one sentence of up to 2k tokens: no terminal punctuation
    st.integers(1, 200).map(
        lambda n: "the quick brown fox jumps over the lazy dog and " * n),
)


@pytest.fixture(scope="module")
def annotate():
    return FusedDocAnnotator()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(text=pages)
def test_adversarial_pages_return_triples(annotate, text):
    page = pa.Table.from_pylist([{
        "url": "https://adversarial.example.org/", "warc_ts": 0,
        "html": None if text is None else text.encode("utf-8"),
        "text": text, "lang": "en"}], schema=PAGES_SCHEMA)
    with wall_budget(30):
        out = annotate(page)
    assert out.schema.equals(TRIPLES_SCHEMA)
