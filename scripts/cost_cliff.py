"""Per-document cost cliff: ``FusedDocAnnotator`` seconds on pages that
repeat one sentence N times.

For each page and each N it prints the min-of-3 seconds of one fused
call on a one-row pages table, and the ratio to the previous N. A
linear chain costs about 2x per doubling of N; an all-pairs step shows
up as a ratio near 4x.

Run from the repository root:
    python scripts/cost_cliff.py                 # N = 250 500 1000 2000
    python scripts/cost_cliff.py --n 250 500 --repeat 1
"""
from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa  # noqa: E402

# an entity page (string and head sieves) and a pronoun page (pronoun
# lookup); both are the skewed long documents of a web crawl's
# boilerplate. The giant-sentence page has no terminal punctuation, so
# it is ONE sentence of 10N tokens and N main verbs (depparse).
PAGES = {
    "entity": "John Smith of Acme Corp. said Smith and Acme will open "
              "in Paris. ",
    "pronoun": "John Smith said he would visit Acme Corp. and it agreed "
               "with them. ",
    "giant sentence": "the quick brown fox jumps over the lazy dog and ",
}


def page_table(text: str) -> pa.Table:
    """One-row pages table holding ``text`` as a plain-text page."""
    from corenlp_ray.sources.pages import PAGES_SCHEMA

    return pa.Table.from_pylist([{
        "url": "https://cliff.example.org/page", "warc_ts": 0,
        "html": text.encode("utf-8"), "text": text, "lang": "en"}],
        schema=PAGES_SCHEMA)


def fused_seconds(annotate, table: pa.Table, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        annotate(table)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+",
                    default=[250, 500, 1000, 2000],
                    help="sentence repeat counts, ascending")
    ap.add_argument("--repeat", type=int, default=3,
                    help="calls per cell; the minimum is printed")
    args = ap.parse_args(argv)

    from corenlp_ray.pipelines.kg import FusedDocAnnotator

    annotate = FusedDocAnnotator()
    annotate(page_table(PAGES["entity"]))   # warm lazy set-up
    print("| page | N | KB | seconds (min of %d) | x prev |" % args.repeat)
    print("|---|---|---|---|---|")
    for name, sentence in PAGES.items():
        prev = None
        for n in args.n:
            text = sentence * n
            s = fused_seconds(annotate, page_table(text), args.repeat)
            ratio = "" if prev is None else "%.2f" % (s / prev)
            print("| %s | %d | %d | %.3f | %s |"
                  % (name, n, len(text) // 1000, s, ratio), flush=True)
            prev = s


if __name__ == "__main__":
    main()
