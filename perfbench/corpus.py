"""Seeded inputs of the benchmark and the order-independent output hash.

Each workload draws from a FIXED corpus whose expected outputs are
recorded in ``golden.json``; the run seed only picks which items are fed
and in what order. That keeps inputs reproducible per seed and lets one
recording check every seed.

* ``documents_table`` synthesizes a ``documents`` table shaped like the
  driver's testdata one (doc_id, lang, text): 41% English rows and a
  ~300-character filler of query-engine words.
* ``long_page`` joins ``n`` template-bank paragraphs
  (``sources.pages.gen_page``) into one HTML page.
* ``triple_digest`` folds rows into ``(count, sum of 64-bit row hashes)``,
  a multiset digest: independent of row order and additive over batches,
  so a batch's expected digest is the sum of its documents' digests.
"""
from __future__ import annotations

import hashlib
import random

import pyarrow as pa

WEB_DOCS = 5000            # the sf0.1 documents row count
WEB_PAGES_PER_DOC = 4
WEB_EN_DOCS_PER_UNIT = 4   # 4 English docs x 4 pages = one 16-page batch
KG_DOCS = 500              # the sf0.01 documents row count
KG_PAGES_PER_DOC = 8
WEB_CORPUS_SEED = 101
KG_CORPUS_SEED = 102

# paragraph counts of one long_pages round: mostly mid-size pages with a
# heavy tail; the run seed picks a bank variant per slot and the order
LONG_ROUND = (20, 20, 20, 20, 20, 20, 30, 30, 30, 40, 40, 60, 80, 160)
LONG_VARIANTS = 8

LANGS = ("en", "zh", "es", "fr", "de")
LANG_WEIGHTS = (0.41, 0.15, 0.15, 0.15, 0.14)
FILLER_WORDS = (
    "a the key agg row scan slow fast table value part hash merge batch "
    "line sort window spark order data column join small customer query "
    "big filter group stream vector").split()

DOC_SCHEMA = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("text", pa.string())])
MASK64 = (1 << 64) - 1


def documents_table(n: int, corpus_seed: int) -> pa.Table:
    """``n`` documents rows, deterministic in ``corpus_seed``."""
    rng = random.Random(corpus_seed)
    langs = rng.choices(LANGS, weights=LANG_WEIGHTS, k=n)
    texts = [" ".join(rng.choices(FILLER_WORDS, k=rng.randint(8, 95)))
             for _ in range(n)]
    return pa.Table.from_pydict(
        {"doc_id": list(range(n)), "lang": langs, "text": texts},
        schema=DOC_SCHEMA)


def en_units(docs: pa.Table, seed: int, en_per_unit: int):
    """Endless stream of units: lists of row indices of ``docs`` in a
    seed-shuffled order, each closed right after its ``en_per_unit``-th
    English row, so every unit holds the same number of English pages
    plus the non-English rows drawn between them."""
    langs = docs.column("lang").to_pylist()
    rng = random.Random(seed)
    while True:
        order = list(range(len(langs)))
        rng.shuffle(order)
        unit, n_en = [], 0
        for i in order:
            unit.append(i)
            if langs[i] == "en":
                n_en += 1
                if n_en == en_per_unit:
                    yield unit
                    unit, n_en = [], 0


def long_key(paragraphs: int, variant: int) -> str:
    return f"{paragraphs}-{variant}"


def long_bank_keys():
    return [long_key(p, v) for p in sorted(set(LONG_ROUND))
            for v in range(LONG_VARIANTS)]


def long_rounds(seed: int):
    """Endless stream of long_pages rounds: each a seed-ordered list of
    bank keys, one per ``LONG_ROUND`` slot."""
    rng = random.Random(seed)
    while True:
        keys = [long_key(p, rng.randrange(LONG_VARIANTS)) for p in LONG_ROUND]
        rng.shuffle(keys)
        yield keys


def long_page(key: str) -> pa.Table:
    """One-row pages table for bank page ``key`` ("<paragraphs>-<variant>")."""
    from corenlp_ray.sources.pages import PAGES_SCHEMA, gen_page, html_of
    from corenlp_ray.stages.extract import extract_text

    paragraphs, variant = (int(x) for x in key.split("-"))
    page_id = 10_000_000 + paragraphs * 100_000 + variant * 1000
    body = "\n\n".join(gen_page(page_id + i)[0] for i in range(paragraphs))
    html = html_of(body, page_id)
    return pa.Table.from_pylist([{
        "url": f"https://long.example.org/page/{key}",
        "warc_ts": 1_500_000_000_000_000, "html": html,
        "text": extract_text(html), "lang": "en"}], schema=PAGES_SCHEMA)


def _row_hash(fields) -> int:
    h = hashlib.blake2b("\x1f".join(map(str, fields)).encode("utf-8"),
                        digest_size=8)
    return int.from_bytes(h.digest(), "little")


def triple_digest(table: pa.Table, columns=("subj", "pred", "obj")):
    """(row count, multiset hash) of ``table`` over ``columns``."""
    rows = zip(*(table.column(c).to_pylist() for c in columns))
    total, n = 0, 0
    for r in rows:
        total = (total + _row_hash(r)) & MASK64
        n += 1
    return n, total


def add_digests(digests):
    """Digest of the union of disjoint multisets."""
    n, total = 0, 0
    for dn, dt in digests:
        n += dn
        total = (total + dt) & MASK64
    return n, total
