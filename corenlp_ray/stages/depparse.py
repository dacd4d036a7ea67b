"""Dependency parsing stage (the nndep DependencyParser analogue).

The reference uses the Chen & Manning 2014 transition-based neural parser
(/root/reference/src/edu/stanford/nlp/parser/nndep/DependencyParser.java:74,
ArcStandard.java, Classifier.java) and derives enhanced graphs via
UniversalEnglishGrammaticalStructure. With no shipped weights, this engine
parses with a deterministic rule cascade producing Universal-Dependencies-
style basic trees — implementing exactly the structures the downstream
OpenIE/KBP pattern libraries consume (SURVEY §7.2 milestone 4: "subset
actually consumed by the triple patterns"): noun-phrase internal structure
(det/amod/compound/nummod/nmod:poss), verb groups (aux/aux:pass/cop),
core arguments (nsubj/nsubj:pass/obj), obliques and noun modifiers with
case (obl/nmod + case), coordination (conj/cc), infinitival xcomp + mark,
advmod, punct.

Head encoding: per-token head index, sentence-local, -1 = root (the same
CoNLL-ish encoding the reference's own unit tests use for dep graphs,
test/src/edu/stanford/nlp/naturalli/OpenIETest.java:37-77). The batch
stage stores doc-level arrays: head indices are doc-level token indices,
-1 for root.

Adds columns: dep_head list<int32>, dep_label list<string>.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col, memo

from corenlp_ray.functions.lexicon import MONTHS

_NOUNISH = {"NN", "NNS", "NNP", "NNPS", "PRP", "CD", "EX", "WP", "DT"}
_NP_HEAD = {"NN", "NNS", "NNP", "NNPS", "PRP", "WP"}
_VERB = {"VB", "VBP", "VBZ", "VBD", "VBN", "VBG"}
_NONFINITE = {"VB", "VBN", "VBG"}
_SUBORD = {"after", "because", "if", "when", "while", "although",
           "though", "since", "before", "unless", "until", "once",
           "whereas"}
_BE = {"be", "am", "is", "are", "was", "were", "been", "being", "'s", "'re", "'m"}
_HAVE = {"have", "has", "had", "'ve"}
_PUNCT = {".", ",", ":", "``", "''", "-LRB-", "-RRB-", "HYPH", "SYM", "$", "#"}


def _noun_chunks(words: List[str], tags: List[str]) -> List[Tuple[int, int, int]]:
    """Maximal base noun phrases → [(begin, end, head_idx)]. Head = last
    nominal token. A POS ('s) token ends a chunk (possessor NP)."""
    chunks = []
    n = len(tags)
    words_are_months = [w.lower() in MONTHS for w in words]
    i = 0
    while i < n:
        t = tags[i]
        # date chunk: (CD)? MONTH (CD)? — "21 February 2013" is one NP
        # headed by the month (nummod day/year), never split into bare-
        # number chunks; requires a CD neighbor so a lone month still
        # compounds normally ("February sales")
        if (t == "CD" and i + 1 < n and words_are_months[i + 1]) or \
                (words_are_months[i] and tags[i] == "NNP" and i + 1 < n
                 and tags[i + 1] == "CD"):
            db = i
            mh = i if words_are_months[i] else i + 1
            j = mh + 1
            if j < n and tags[j] == "CD":
                j += 1
            chunks.append((db, j, mh))
            i = j
            continue
        if t in ("DT", "PRP$", "JJ", "JJR", "JJS", "CD") and i + 1 < n and (
                tags[i + 1] in ("DT", "PRP$", "JJ", "JJR", "JJS", "CD")
                or tags[i + 1] in _NP_HEAD):
            b = i
            j = i
            while j < n and (tags[j] in ("DT", "PRP$", "JJ", "JJR", "JJS",
                                         "CD")
                             # adjective coordination before the head noun
                             # stays inside the chunk ("the 44th and
                             # current President")
                             or (tags[j] == "CC" and j > b
                                 and tags[j - 1] in ("JJ", "JJR", "JJS",
                                                     "CD")
                                 and j + 1 < n
                                 and tags[j + 1] in ("JJ", "JJR", "JJS",
                                                     "CD"))):
                j += 1
            if j < n and tags[j] in _NP_HEAD:
                # bare numbers don't modify proper names ("2013 George
                # Boyd" is a date then a name, not one NP)
                if tags[j] == "NNP" and all(tags[m] == "CD"
                                            for m in range(b, j)):
                    for m in range(b, j):
                        chunks.append((m, m + 1, m))
                    b = j
                while j < n and tags[j] in _NP_HEAD \
                        and tags[j] not in ("PRP", "WP"):
                    j += 1
                chunks.append((b, j, j - 1))
                i = j
                continue
            # determiner chunk with no head noun ("some" alone) — head = last
            chunks.append((b, j, j - 1))
            i = j
        elif t in ("PRP", "WP"):
            chunks.append((i, i + 1, i))
            i += 1
        elif t in _NP_HEAD:
            b = i
            j = i
            while j < n and tags[j] in _NP_HEAD \
                    and tags[j] not in ("PRP", "WP"):
                j += 1
            chunks.append((b, j, j - 1))
            i = j
        elif t == "CD":
            # standalone number/year is an NP of its own ("in 2004")
            chunks.append((i, i + 1, i))
            i += 1
        else:
            i += 1
    return chunks


def parse_sentence(words: List[str], tags: List[str]) -> Tuple[List[int], List[str]]:
    """Pure kernel: one sentence → (heads, labels), sentence-local, -1=root."""
    n = len(words)
    heads = [-2] * n  # -2 = unattached
    labels = [""] * n
    lowers = [w.lower() for w in words]

    def attach(child, head, label):
        if heads[child] == -2 and child != head:
            heads[child] = head
            labels[child] = label

    # ---- noun-phrase internal structure ----
    chunks = _noun_chunks(words, tags)
    chunk_head = {}
    for b, e, h in chunks:
        for k in range(b, e):
            chunk_head[k] = h
        for k in range(b, e):
            if k == h:
                continue
            t = tags[k]
            if t == "DT":
                attach(k, h, "det")
            elif t == "PRP$":
                attach(k, h, "nmod:poss")
            elif t in ("JJ", "JJR", "JJS"):
                attach(k, h, "amod")
            elif t == "CD":
                attach(k, h, "nummod")
            elif t == "CC":
                attach(k, h, "cc")
            else:
                attach(k, h, "compound")

    # currency amounts: "$ 3.2 billion" — the symbol heads, numbers are
    # its nummods (PTB/UD money convention)
    for k in range(n):
        if words[k] == "$" and k + 1 < n and tags[k + 1] == "CD" \
                and k not in chunk_head:
            j = k + 1
            while j < n and tags[j] == "CD":
                attach(j, k, "nummod")
                chunk_head.pop(j, None)
                j += 1
            chunks = [(b, e, h) for b, e, h in chunks
                      if not (k + 1 <= h < j)]
            chunks.append((k, j, k))
            chunks.sort()
            for m in range(k, j):
                chunk_head[m] = k

    heads_of_chunks = [h for _, _, h in chunks]
    chunk_begin = [b for b, _, _ in chunks]
    chunk_end = {h: e for _, e, h in chunks}

    # ---- possessives: NP 's NP → possessor nmod:poss of possessed ----
    for ci in range(len(chunks) - 1):
        b, e, h = chunks[ci]
        if e < n and tags[e] == "POS":
            nb, ne, nh = chunks[ci + 1]
            if nb == e + 1:
                attach(h, nh, "nmod:poss")
                attach(e, h, "case")

    # ---- verb group / root selection ----
    verb_idx = [i for i in range(n) if tags[i] in _VERB or tags[i] == "MD"]
    root = -1
    copula_pred = -1
    main_verbs: List[int] = []
    relcl_verbs = set()  # relative-clause verbs: excluded from root/conj
    i = 0
    processed = set()
    for i in verb_idx:
        if i in processed:
            continue
        # collect the verb chain starting here: MD/aux/be/have + ... + main
        chain = [i]
        j = i + 1
        # a chain may only CONTINUE with a non-finite form (VB VBN VBG):
        # finite verbs (VBZ/VBD/VBP/MD) are always chain-initial, so
        # "What she said is untrue" never fuses "said is" into one group
        while j < n and (tags[j] in _NONFINITE
                         or (tags[j] == "RB" and j + 1 < n
                             and tags[j + 1] in _NONFINITE)):
            if tags[j] == "RB":
                j += 1
                continue
            chain.append(j)
            j += 1
        processed.update(chain)
        main = chain[-1]
        # reduced relative: a bare VBN right after a noun with NO noun
        # phrase following is a participial modifier, not a predicate
        # ("Truffles picked during the spring are tasty")
        prvk = main - 1
        while prvk > 0 and tags[prvk] == "RB":   # "a lesson once learned"
            prvk -= 1
        if len(chain) == 1 and tags[main] == "VBN" \
                and prvk in chunk_head:
            nxtk = main + 1
            while nxtk < n and tags[nxtk] == "RB":
                nxtk += 1
            if nxtk >= n or tags[nxtk] in _PUNCT \
                    or tags[nxtk] in ("IN", "CC", "TO"):
                attach(main, chunk_head[prvk], "acl")
                relcl_verbs.add(main)
                main_verbs.append(main)
                continue
        # participial VBG right after a noun modifies it ("the team
        # demonstrating his incompetence", "dogs sitting in heaven")
        if len(chain) == 1 and tags[main] == "VBG" \
                and prvk in chunk_head:
            attach(main, chunk_head[prvk], "acl")
            relcl_verbs.add(main)
            main_verbs.append(main)
            continue
        # be-inversion questions: WH (+RB) + be + SUBJ + PRED — the
        # post-subject predicate is the root; be is its aux (VBG/VBN)
        # or cop; the WH word fills obj/obl/advmod per the gap
        # ("Why is Dave becoming a problem?", "What is UAL stock
        # worth?", "What is the esophagus used for?")
        if len(chain) == 1 and lowers[main] in _BE:
            wh = next((k for k in range(main) if tags[k] in
                       ("WP", "WDT", "WRB") and heads[k] == -2), -1)
            if wh >= 0 and all(tags[m] in ("WP", "WDT", "WRB", "RB")
                               for m in range(main)):
                whlab = "advmod" if tags[wh] == "WRB" else "obj"
                if main + 1 < n and lowers[main + 1] == "there":
                    # inverted existential: "What is there in the field?"
                    attach(main + 1, main, "expl")
                    attach(wh, main, "nsubj")
                    main_verbs.append(main)
                    continue
                sc = next(((b, e, h) for b, e, h in chunks
                           if b == main + 1), None)
                if sc is not None:
                    b, e, hh = sc
                    # "What is UAL stock worth?" — a predicative noun
                    # fused into the subject chunk splits off
                    if e - b >= 2 and lowers[e - 1] in ("worth", "like") \
                            and (e >= n or tags[e] in _PUNCT):
                        pred = e - 1
                        subj2 = e - 2
                        attach(main, pred, "cop")
                        heads[subj2] = pred       # override compound arc
                        labels[subj2] = "nsubj"
                        attach(wh, pred, whlab)
                        for m in range(b, e - 2):
                            if heads[m] == pred:
                                heads[m] = subj2  # compounds follow subj
                        main_verbs.append(pred)
                        copula_pred = pred
                        continue
                    # skip over a post-subject PP to find a VBN/VBG
                    # predicate ("What is the fear of cockroaches
                    # called?")
                    j = e
                    while j + 1 < n and tags[j] == "IN" \
                            and (j + 1) in chunk_head:
                        ce2 = next((ee for bb, ee, hh2 in chunks
                                    if bb <= j + 1 < ee), j + 2)
                        j = ce2
                    if j > e and j < n and tags[j] in ("VBN", "VBG"):
                        e = j
                    pt = tags[e] if e < n else ""
                    if pt == "VBG":
                        attach(main, e, "aux")
                        attach(hh, e, "nsubj")
                        attach(wh, e, whlab)
                        processed.add(e)
                        main_verbs.append(e)
                        continue
                    if pt == "VBN":
                        attach(main, e, "aux:pass")
                        attach(hh, e, "nsubj:pass")
                        strand = next((s for s in range(e + 1, n)
                                       if tags[s] == "IN"
                                       and all(m not in chunk_head
                                               for m in range(s + 1, n))),
                                      -1)
                        if strand >= 0 and tags[wh] != "WRB":
                            attach(strand, wh, "case")
                            attach(wh, e, "obl")
                        else:
                            attach(wh, e, whlab)
                        processed.add(e)
                        main_verbs.append(e)
                        continue
                    if pt in ("JJ", "IN", "RB") and \
                            (e + 1 >= n or tags[e + 1] in _PUNCT):
                        attach(main, e, "cop")
                        attach(hh, e, "nsubj")
                        attach(wh, e, whlab)
                        main_verbs.append(e)
                        copula_pred = e
                        continue
                    if pt == "TO" and e + 1 < n and tags[e + 1] == "VB":
                        # "Who am I to judge?" — WH is the predicate
                        attach(main, wh, "cop")
                        attach(hh, wh, "nsubj")
                        attach(e, e + 1, "mark")
                        attach(e + 1, wh, "advcl")
                        processed.add(e + 1)
                        main_verbs.append(wh)
                        copula_pred = wh
                        continue
        # WH-copula question: "What is that?" / "Who is John?" — the
        # WH word is the predicate root, the post-verbal nominal its
        # subject (only when no other verb follows)
        if len(chain) == 1 and lowers[main] in _BE and main == 1 \
                and tags[0] in ("WP", "WDT") and heads[0] == -2 \
                and not any(tags[m] in _VERB for m in range(main + 1, n)):
            # "What 's on the test?" — be + PP: the be-verb is the
            # root, the WH its subject
            if main + 1 < n and tags[main + 1] == "IN":
                attach(0, main, "nsubj")
                main_verbs.append(main)
                continue
            # "Who is nervous?" — an adjectival predicate wins the
            # root (generic copula scan handles it); only a NOMINAL
            # predicate roots at the WH word
            adj_first = False
            for k in range(main + 1, n):
                if k in chunk_head:
                    break
                if tags[k] in ("JJ", "VBN"):
                    adj_first = True
                    break
            if not adj_first:
                attach(main, 0, "cop")
                for k in range(main + 1, n):
                    if k in chunk_head or tags[k] == "DT":
                        attach(chunk_head.get(k, k), 0, "nsubj")
                        break
                main_verbs.append(0)
                copula_pred = 0
                continue
        # existential there: "There is a statue ..." — the be-verb IS
        # the predicate (expl + post-verbal nsubj), never a copula
        if len(chain) == 1 and lowers[main] in _BE \
                and any((tags[k] == "EX" or lowers[k] in ("there",
                                                          "here"))
                        and heads[k] == -2 for k in range(main)):
            ex = next(k for k in range(main)
                      if tags[k] == "EX" or lowers[k] in ("there",
                                                          "here"))
            attach(ex, main, "advmod" if lowers[ex] == "here"
                   else "expl")
            for k in range(main + 1, n):
                if k in chunk_head:
                    attach(chunk_head[k], main, "nsubj")
                    break
            main_verbs.append(main)
            continue
        # copula detection: lone be-verb followed by predicate NP/ADJ
        if len(chain) == 1 and lowers[main] in _BE:
            # find predicate: next chunk head or adjective before sentence end
            pred = -1
            for k in range(main + 1, n):
                if k in chunk_head:
                    pred = chunk_head[k]
                    break
                if tags[k] in ("JJ", "VBN") and (
                        k + 1 >= n or tags[k + 1] in _PUNCT
                        or tags[k + 1] in ("IN", "CC", "TO")):
                    pred = k
                    break
                if tags[k] in _VERB:
                    break
            if pred >= 0:
                # measure-phrase predicate: "is 65 years old" — the JJ
                # after the noun chunk is the real predicate, the chunk
                # its nominal modifier
                ce = chunk_end.get(pred, -1)
                if ce >= 0 and ce < n and tags[ce] == "JJ" and \
                        (ce + 1 >= n or tags[ce + 1] in _PUNCT):
                    attach(pred, ce, "obl:npmod")
                    pred = ce
                attach(main, pred, "cop")
                # coordinated predicate adjectives: "is big and honest"
                # — UD heads the FIRST conjunct; later ones are conj
                q = pred + 1
                while q + 1 < n and tags[q] in ("CC", ",") \
                        and tags[q + 1] in ("JJ", "VBN"):
                    attach(q, q + 1, "cc" if tags[q] == "CC" else "punct")
                    attach(q + 1, pred, "conj")
                    q += 2
                main_verbs.append(pred)
                copula_pred = pred
                continue
        for c in chain[:-1]:
            if tags[c] == "MD":
                attach(c, main, "aux")
            elif lowers[c] in _BE and tags[main] == "VBN":
                attach(c, main, "aux:pass")
            elif lowers[c] in _BE or lowers[c] in _HAVE or lowers[c] in ("do", "does", "did"):
                attach(c, main, "aux")
            else:
                attach(c, main, "aux")
        main_verbs.append(main)

    # ---- relative clauses: NOUN (,) who/which/that/whose (NP) + VERB.
    # Subject relatives ("the man who founded X"), object relatives
    # ("the man who you love" → nsubj(love,you) + obj(love,who)),
    # whose-relatives (WP$ → nmod:poss of the possessed noun, which
    # fills the gap role), with appositive insertions skipped
    # ("Xerox, whose officer, James Gatward, has resigned") ----
    chunk_of = {}
    for b, e, h in chunks:
        for k in range(b, e):
            chunk_of[k] = (b, e, h)
    for v in main_verbs:
        if v in relcl_verbs:
            continue
        w = -1
        noms: List[int] = []        # nominal heads between WH and v
        appos: List[int] = []       # comma-bracketed appositive heads
        k = v - 1
        steps = 0
        while k >= 0 and steps < 10:
            steps += 1
            t = tags[k]
            if t in ("WP", "WDT", "WP$"):
                w = k
                break
            if heads[k] == v:               # aux / cop / advmod of v
                k -= 1
                continue
            if k in chunk_of:
                b, e, h = chunk_of[k]
                if b - 1 >= 0 and tags[b - 1] == "," and e < n \
                        and tags[e] == ",":
                    appos.append(h)
                else:
                    noms.append(h)
                k = b - 1
                continue
            if t in ("RB", "MD", ","):
                k -= 1
                continue
            break
        if w < 0:
            continue
        a = w - 1
        if a >= 0 and tags[a] == ",":
            a -= 1
        ant = chunk_head.get(a, -1) if a >= 0 else -1
        if ant < 0:
            continue
        relcl_verbs.add(v)
        attach(v, ant, "acl:relcl")
        if tags[w] == "WP$":
            gap = chunk_head.get(w + 1, -1)     # the possessed noun
            if gap >= 0:
                attach(w, gap, "nmod:poss")
        else:
            gap = w
        for ap in appos:                        # "…, James Gatward, …"
            host = next((x for x in noms if x != ap), gap)
            if host >= 0 and host != ap:
                attach(ap, host, "appos")
        subj = next((x for x in noms if x != gap), -1)
        if gap >= 0:
            if subj >= 0:                       # object relative
                attach(subj, v, "nsubj")
                attach(gap, v, "obj")
            else:
                attach(gap, v, "nsubj")

    # ---- clausal subjects: a sentence-initial complementizer ("That /
    # Whether she lied ...") or WH free relative ("What she said ...")
    # makes the FIRST verb's clause the csubj of the SECOND predicate
    # (UniversalEnglishGrammaticalStructureTest gold: csubj(untrue-5,
    # said-3) for "What she said is untrue") ----
    # ---- subject–aux inversion (questions): "What did Babbage invent?"
    # / "In which city do you live?" — the fronted do/modal is an aux
    # of the bare lexical verb, which is the real predicate ----
    if len(main_verbs) >= 2:
        v0, v1 = main_verbs[0], main_verbs[1]
        if (lowers[v0] in ("do", "does", "did") or tags[v0] == "MD") \
                and tags[v1] == "VB" \
                and any(v0 < k < v1 and k in chunk_head for k in
                        range(v0 + 1, v1)):
            attach(v0, v1, "aux")
            main_verbs.remove(v0)
            # fronted WH object: "What did Babbage invent?"
            if tags[0] in ("WP", "WDT") and heads[0] == -2:
                attach(0, v1, "obj")

    # ---- sentence-initial subordinator: "If you know ..., you should
    # tell ..." — the first clause is an advcl of the matrix predicate
    # after the clause-final comma; the matrix verb is the root ----
    advcl_first = -1
    advcl_matrix = -1
    if len(main_verbs) >= 2 and tags[0] == "IN" and lowers[0] in _SUBORD:
        v0 = main_verbs[0]
        comma = next((k for k in range(v0 + 1, n) if tags[k] == ","), -1)
        matrix = next((v for v in main_verbs
                       if v > (comma if comma >= 0 else v0)
                       and v not in relcl_verbs), -1)
        if matrix >= 0 and matrix != v0:
            advcl_first = v0
            advcl_matrix = matrix
            attach(0, v0, "mark")
            attach(v0, matrix, "advcl")

    csubj_first = -1
    if len(main_verbs) >= 2 and n > 2:
        v0, v1 = main_verbs[0], main_verbs[1]
        if v0 < v1 and v0 not in relcl_verbs and v1 not in relcl_verbs \
                and (lowers[0] in ("that", "whether")
                     or tags[0] in ("WP", "WDT")) \
                and not any(tags[m] == "CC" for m in range(v0, v1)) \
                and tags[v1 - 1] != "TO" \
                and not any(heads[m] == v0
                            and labels[m] in ("cop", "nsubj",
                                              "nsubj:pass")
                            for m in range(n)):
            csubj_first = v0
            passive1 = any(heads[k] == v1 and labels[k] == "aux:pass"
                           for k in range(n))
            attach(v0, v1, "csubj:pass" if passive1 else "csubj")
            if tags[0] in ("WP", "WDT"):
                # the WH word fills the embedded gap: obj if the clause
                # already has a nominal subject, else nsubj
                has_nom = any(0 < k < v0 and k in chunk_head
                              and chunk_head[k] == k for k in range(1, v0))
                attach(0, v0, "obj" if has_nom else "nsubj")
            else:
                attach(0, v0, "mark")

    if advcl_matrix >= 0:
        root = advcl_matrix
    elif main_verbs:
        root = next((v for v in main_verbs
                     if v not in relcl_verbs and v != csubj_first
                     and v != advcl_first), -1)
        if root < 0:
            # every verb is a relative/participial modifier — an NP
            # fragment ("Xerox, whose officer has resigned"): root is
            # the modified noun
            root = next((h for h in heads_of_chunks if heads[h] == -2),
                        main_verbs[0])
    elif heads_of_chunks:
        # verbless fragment: root = first chunk head that is not already
        # attached (e.g. a possessor NP points at its possessee);
        # a bare demonstrative head ("those still under GASB rules")
        # roots itself with the trailing nominal as its reduced relative
        if tags[0] == "DT" and lowers[0] in ("those", "these") \
                and 0 not in chunk_head:
            root = 0
            nh = next((h for h in heads_of_chunks if heads[h] == -2),
                      -1)
            if nh > 0:
                attach(nh, 0, "acl:relcl")
        else:
            root = next((h for h in heads_of_chunks if heads[h] == -2),
                        heads_of_chunks[0])
    elif n:
        root = 0
    if root >= 0:
        heads[root] = -1
        labels[root] = "root"

    # ---- complement / infinitival clauses (run BEFORE the conj pass so
    # the more specific attachment wins) ----
    for vi, v in enumerate(main_verbs[1:], start=1):
        if v in relcl_verbs or heads[v] != -2:
            continue
        # purpose idiom "in order to VB": mark+fixed, advcl of the
        # previous predicate — never an acl of the noun "order"
        if v >= 3 and tags[v - 1] == "TO" and lowers[v - 2] == "order" \
                and lowers[v - 3] == "in":
            attach(v - 3, v, "mark")
            attach(v - 2, v - 3, "fixed")
            attach(v - 1, v, "mark")
            attach(v, main_verbs[vi - 1] if vi > 0 else root, "advcl")
            continue
        # infinitival acl: NOUN + to + VB ("the first African American to
        # hold the office") — modifier clause of the noun, not a conjunct
        if v >= 2 and tags[v - 1] == "TO" and (v - 2) in chunk_head:
            attach(v - 1, v, "mark")
            attach(v, chunk_head[v - 2], "acl")
            continue
        # bare to-infinitive after a verb: open-clause complement
        # ("says that you like to swim" → xcomp(like, swim))
        if v >= 2 and tags[v - 1] == "TO":
            attach(v - 1, v, "mark")
            attach(v, main_verbs[vi - 1], "xcomp")
            continue
        prev = main_verbs[vi - 1]
        # embedded WH question: "know who did it" — the WH clause is a
        # ccomp of the previous predicate, the WH filling the embedded
        # subject (or object when a nominal subject intervenes)
        if v - 2 >= prev and tags[prev + 1] in ("WP", "WRB") \
                and heads[prev + 1] == -2 and prev + 1 < v:
            w = prev + 1
            has_nom = any(w < m < v and chunk_head.get(m) == m
                          for m in range(w + 1, v))
            if tags[w] == "WP":
                attach(w, v, "obj" if has_nom else "nsubj")
            else:
                attach(w, v, "advmod")
            attach(v, prev, "ccomp")
            continue
        # "that"-complement: a bare "that" between the previous clause and
        # this verb's subject marks a ccomp under the previous predicate
        # ("There is no doubt that I am great", "He said that X founded Y")
        for p in range(prev + 1, v):
            # complementizer "that" between two clauses: a lone "that"
            # re-attaches as mark; one fused as a determiner into the
            # embedded subject chunk ("doubt that cats have...") keeps
            # its det arc but the clause is still a ccomp
            if lowers[p] == "that":
                if chunk_head.get(p, p) == p:
                    heads[p] = v
                    labels[p] = "mark"
                attach(v, prev, "ccomp")
                break

    # ---- adverbial clauses: a subordinating IN between two predicates
    # marks the LATER one as an advcl of the earlier ("engaged in
    # fighting after insurgents launched (attacks)" → mark(launched,
    # after), advcl(engaged, launched)) ----
    for vi, v in enumerate(main_verbs[1:], start=1):
        if v in relcl_verbs or heads[v] != -2:
            continue
        prev = main_verbs[vi - 1]
        # "P whether/if ..." complement: the embedded predicate is an
        # acl of the preceding noun ("information on whether users are
        # at risk") or a ccomp of the previous predicate
        done = False
        for s in range(v - 1, prev, -1):
            if lowers[s] in ("whether", "if") and heads[s] == -2 \
                    and s > prev + 1:
                attach(s, v, "mark")
                anchor = s - 1
                if anchor > prev and tags[anchor] == "IN":
                    attach(anchor, v, "mark")
                    anchor -= 1
                if anchor > prev and anchor in chunk_head:
                    attach(v, chunk_head[anchor], "acl")
                else:
                    attach(v, prev, "ccomp")
                done = True
                break
            if tags[s] == "WRB" and heads[s] == -2 \
                    and lowers[s] in ("when", "whenever", "where",
                                      "wherever", "while"):
                attach(s, v, "advmod")
                attach(v, prev, "advcl")
                done = True
                break
        if done:
            continue
        for s in range(v - 1, prev, -1):
            if tags[s] == "IN" and heads[s] == -2 \
                    and (lowers[s] in _SUBORD
                         or (s == v - 1 and tags[v] == "VBG")
                         or (lowers[s] == "as"
                             and any(m in chunk_head
                                     for m in range(s + 1, v))
                             and not any(tags[m] == "CC"
                                         for m in range(s + 1, v)))):
                attach(s, v, "mark")
                attach(v, prev, "advcl")
                break

    # ---- conj between verbs: later main verbs conj of root; across a
    # semicolon the clauses are parataxis, not coordination ----
    semis = [k for k, w in enumerate(words) if w == ";"]
    for v in main_verbs[1:]:
        if v not in relcl_verbs:
            lab = "conj"
            if root >= 0 and bisect_left(semis, min(root, v)) < \
                    bisect_left(semis, max(root, v)):
                lab = "parataxis"
            attach(v, root, lab)

    # ---- conj between nouns: NP (, NP)* CC NP ----
    # Runs BEFORE verb arguments so the FIRST conjunct carries nsubj/obj
    # (UD convention) and later conjuncts attach conj to it. A bare
    # comma without an eventual CC is an appositive, not a list — the
    # chain only attaches when it ends in a coordinator.
    for ci in range(len(chunks)):
        b, e, first = chunks[ci]
        if heads[first] != -2:
            continue
        j = e
        chain = []  # (separator_idx, conjunct_head)
        has_cc = False
        while j < n:
            if tags[j] == "," and j + 1 in chunk_head:
                nh = chunk_head[j + 1]
                chain.append((j, nh))
                j = chunk_end.get(nh, j + 2)
            elif tags[j] == "CC" and j + 1 in chunk_head:
                nh = chunk_head[j + 1]
                chain.append((j, nh))
                has_cc = True
                break
            else:
                break
        if has_cc:
            for sep, nh in chain:
                attach(sep, nh, "cc" if tags[sep] == "CC" else "punct")
                attach(nh, first, "conj")

    # ---- appositives: CHUNK , CHUNK , — a comma-bracketed nominal
    # right after another nominal is its appos ("Sam, my brother,
    # eats ...") — the conj pass above already claimed list items ----
    for b, e, h in chunks:
        if heads[h] != -2 or b < 2 or tags[b - 1] != ",":
            continue
        prev_h = chunk_head.get(b - 2)
        if prev_h is None or e >= n or tags[e] != ",":
            continue
        attach(h, prev_h, "appos")

    # ---- core arguments per main verb ----
    # subject candidates: unattached chunk heads and the root. Heads are
    # never detached, so ``skip`` jumps over attached chunks for good.
    skip = list(range(-1, len(chunks) - 1))

    def candidate_at_or_before(ci):
        path = []
        while ci >= 0 and heads[heads_of_chunks[ci]] != -2 \
                and heads_of_chunks[ci] != root:
            path.append(ci)
            ci = skip[ci]
        for p in path:
            skip[p] = ci
        return ci

    # this loop only attaches, so the subject and passive tests read
    # indexes built once here and extended by its own nsubj arcs
    subjects: dict = {}   # head → its nsubj / nsubj:pass children
    for k in range(n):
        if labels[k] in ("nsubj", "nsubj:pass"):
            subjects.setdefault(heads[k], []).append(k)
    passives = {heads[k] for k in range(n) if labels[k] == "aux:pass"}

    for vi, v in enumerate(main_verbs):
        passive = v in passives
        has_subj = v in subjects
        # subject: nearest chunk head before v not already attached to a
        # verb; a nominal candidate beats a bare number ("Brown, 45,
        # attended" → Brown, not 45)
        subj = -1
        if not has_subj:
            cd_fallback = -1
            ci = bisect_left(heads_of_chunks, v) - 1
            while (ci := candidate_at_or_before(ci)) >= 0:
                h = heads_of_chunks[ci]
                ci -= 1
                if tags[h] == "DT":
                    continue
                if tags[h] == "CD":
                    if cd_fallback < 0:
                        cd_fallback = h
                    continue
                subj = h
                break
            if subj < 0:
                subj = cd_fallback
        if subj >= 0 and heads[subj] == -2 and labels[v] != "acl":
            # infinitival acl clauses modify their noun — no subject
            attach(subj, v, "nsubj:pass" if passive else "nsubj")
            subjects.setdefault(v, []).append(subj)
        elif vi > 0 and subj == -1:
            # shared subject across conj verbs: copy root's nsubj
            subj = min(subjects.get(root, ()), default=-1)
        # objects / obliques after v, up to next main verb.
        # nominal copular predicates ("doubt", "officer") take PPs but
        # never objects — only true verbs scavenge bare NPs
        nominal = tags[v] not in _VERB
        nxt = main_verbs[vi + 1] if vi + 1 < len(main_verbs) else n
        k = v + 1
        got_obj = nominal
        stop = min(nxt, n)
        while k < stop:
            if words[k] == ";":     # clause boundary — arguments beyond
                break               # belong to the next clause
            t = tags[k]
            # "that"-complementizer: the clause after it belongs to the
            # embedded verb — stop scavenging arguments across it
            if lowers[k] == "that" and any(
                    tags[m] in _VERB for m in range(k + 1, stop if stop > k else n)) \
                    or (lowers[k] == "that" and nxt < n):
                break
            if t == "IN" and heads[k] != -2:
                # already a subordinator mark — the tokens beyond it
                # belong to the embedded clause, not to v
                break
            if t == "IN" and k + 1 < n and lowers[k + 1] in ("whether",
                                                             "if"):
                # "information on whether users are at risk": both the
                # preposition and the complementizer mark the EMBEDDED
                # predicate; v's argument scan stops at the boundary
                nxt_pred = next((u for u in main_verbs if u > k), -1)
                if nxt_pred >= 0:
                    attach(k, nxt_pred, "mark")
                    attach(k + 1, nxt_pred, "mark")
                break
            if t == "IN" or (t == "TO" and not (k + 1 < n and tags[k + 1] == "VB")):
                # preposition introducing an oblique/nmod
                ci = bisect_right(chunk_begin, k)
                ph = chunks[ci][2] if ci < len(chunks) else -1
                # a possessive complement heads at the POSSESSED noun:
                # "of Sotheby 's Holdings Inc." → case(Inc., of)
                while ph >= 0:
                    pe = chunk_end.get(ph, -1)
                    if pe >= 0 and pe < n and tags[pe] == "POS" \
                            and (pe + 1) in chunk_head:
                        ph = chunk_head[pe + 1]
                    else:
                        break
                if ph >= 0 and heads[ph] == -2:
                    attach(k, ph, "case")
                    # "of"-PPs are nominal modifiers of the preceding noun;
                    # a "from"-PP with an entity (non-date) complement
                    # attaches to an immediately preceding oblique noun
                    # ("joined on loan from Peterborough United" → loan);
                    # all other prepositions are verbal obliques (the subset
                    # of enhanced++ prep semantics the triple patterns use)
                    prev_tok = k - 1
                    prev_head = chunk_head.get(prev_tok)
                    if lowers[k] == "of" and prev_head is not None \
                            and prev_head != ph:
                        attach(ph, prev_head, "nmod")
                    elif lowers[k] == "from" and prev_head is not None \
                            and prev_head != ph \
                            and labels[prev_head] == "obl" \
                            and tags[ph] != "CD" \
                            and lowers[ph] not in MONTHS:
                        attach(ph, prev_head, "nmod")
                    else:
                        attach(ph, v, "obl")
                    # "from X to Y" range: Y is an nmod of X (one phrase,
                    # "taught law from 1992 to 2004")
                    if lowers[k] == "from" and tags[ph] == "CD" \
                            and ph + 2 < n and lowers[ph + 1] in ("to",
                                                                  "until") \
                            and tags[ph + 2] == "CD":
                        attach(ph + 1, ph + 2, "case")
                        attach(ph + 2, ph, "nmod")
                        k = ph + 3
                        continue
                    k = ph + 1
                    continue
            elif k in chunk_head and heads[chunk_head[k]] == -2 and not got_obj:
                h = chunk_head[k]
                # a day/year number continuing a date is part of the
                # date, never a verb object ("on January 20, 2009")
                if tags[h] == "CD":
                    month = -1
                    for back in range(h - 1, max(-1, h - 4), -1):
                        if lowers[back] in MONTHS:
                            month = back
                            break
                        if words[back] != "," and tags[back] != "CD":
                            break
                    if month >= 0:
                        attach(h, month, "nummod")
                        k = h + 1
                        continue
                if tags[h] != "DT" or words[h].lower() not in ("the", "a", "an"):
                    attach(h, v, "obj")
                    got_obj = True
                    k = h + 1
                    continue
            elif t == "TO" and k + 1 < n and tags[k + 1] == "VB":
                attach(k, k + 1, "mark")
                attach(k + 1, v, "xcomp")
                k += 2
                continue
            k += 1

    # ---- fronted PPs: "On 21 February 2013 George Boyd joined ..." —
    # an unattached chunk preceded by a preposition attaches as an obl of
    # the nearest following main verb ----
    for b, e, h in chunks:
        if heads[h] != -2 or b == 0:
            continue
        p = b - 1
        if tags[p] in ("WDT", "DT"):    # "In which city do you live?"
            if p == 0 or tags[p - 1] != "IN":
                continue
            attach(p, h, "det")
            p -= 1
        elif tags[p] != "IN":
            continue
        tgt = next((v for v in main_verbs if v >= e
                    and v not in relcl_verbs), root)
        if tgt is not None and tgt >= 0 and tgt != h:
            attach(p, h, "case")
            attach(h, tgt, "obl")

    # ---- leftovers ----
    for k in range(n):
        if heads[k] != -2:
            continue
        t = tags[k]
        if t in _PUNCT or words[k] in _PUNCT:
            attach(k, root if root >= 0 else 0, "punct")
        elif t == "RB":
            # degree adverb: attaches to an immediately following
            # adjective/number/adverb ("very beautiful", "About 200")
            if k + 1 < n and tags[k + 1] in ("JJ", "JJR", "JJS", "CD",
                                             "RB", "VBN"):
                attach(k, k + 1, "advmod")
                continue
            # else nearest verb to the left, else right, else root
            tgt = -1
            for d in range(1, n):
                if k - d >= 0 and tags[k - d] in _VERB:
                    tgt = k - d
                    break
                if k + d < n and tags[k + d] in _VERB:
                    tgt = k + d
                    break
            # negation of a copular predicate attaches to the
            # PREDICATE, not the copula ("is not a scientist");
            # after an auxiliary it modifies the lexical verb
            # ("does n't drive")
            if tgt >= 0 and labels[tgt] in ("cop", "aux", "aux:pass") \
                    and heads[tgt] >= 0:
                tgt = heads[tgt]
            attach(k, tgt if tgt >= 0 else root, "advmod")
        elif t == "IN":
            # preposition over a demonstrative pronoun: "in that ?" —
            # the DT is the complement, an obl of the root
            if k + 1 < n and tags[k + 1] == "DT" \
                    and lowers[k + 1] in ("that", "this", "these",
                                          "those") and heads[k + 1] == -2:
                attach(k, k + 1, "case")
                attach(k + 1, root, "obl")
                continue
            # stranded preposition: case of the following chunk head or mark
            tgt = chunk_head.get(k + 1, root)
            attach(k, tgt if tgt is not None else root, "case")
        elif t == "WDT" and k + 1 < n and tags[k + 1] in ("NN", "NNS"):
            attach(k, chunk_head.get(k + 1, k + 1), "det")
        elif t == "PDT" and k + 1 < n and (k + 1) in chunk_head:
            attach(k, chunk_head[k + 1], "det:predet")
        elif t == "CC" and lowers[k] in ("both", "neither", "either") \
                and k + 1 < n and (k + 1) in chunk_head:
            attach(k, chunk_head[k + 1], "cc:preconj")
        elif root >= 0 and k != root:
            attach(k, root, "dep")
        else:
            heads[k] = -1
            labels[k] = "root"

    # safety: no self-loops / out-of-range
    for k in range(n):
        if heads[k] == k or heads[k] is None or heads[k] < -1 or heads[k] >= n:
            heads[k] = root if (root >= 0 and k != root) else -1
            labels[k] = labels[k] or "dep"
    return heads, labels


class DepParser:
    """Stage: + dep_head, dep_label (doc-level indices, -1 = root). The
    weights slot is ``_parse`` (swap in a trained scorer without
    touching the pipeline)."""

    def _parse(self, words, tags):
        """Per-sentence kernel hook (overridden by WeightedDepParser):
        sentence-local heads, -1 = root, and labels."""
        return parse_sentence(words, tags)

    @stage_kernel("depparse")
    def __call__(self, batch: pa.Table, cols: dict) -> pa.Table:
        heads_c, labels_c = [], []
        parse = memo(cols, "depparse", self._parse)
        words_col = col(batch, "tok_word", cols)
        tags_col = col(batch, "tok_pos", cols)
        sb_col = col(batch, "sent_begin", cols)
        se_col = col(batch, "sent_end", cols)
        for words, tags, sbs, ses in zip(words_col, tags_col, sb_col, se_col):
            heads = [-1] * len(words)
            labels = ["dep"] * len(words)
            words, tags = tuple(words), tuple(tags)
            for b, e in zip(sbs, ses):
                hs, ls = parse(words[b:e], tags[b:e])
                for k, (h, l) in enumerate(zip(hs, ls)):
                    heads[b + k] = (b + h) if h >= 0 else -1
                    labels[b + k] = l
            heads_c.append(heads)
            labels_c.append(labels)
        cols.update(dep_head=heads_c, dep_label=labels_c)
        return batch


depparse_batch = DepParser()   # the default stage as a plain callable


class WeightedDepParser(DepParser):
    """The depparse stage parsing with TRAINED arc-standard transition
    weights (models/transition_parser.py — the nndep-shaped slot): the
    model JSON loads once in ``__init__``, when the chain is built on
    the driver, and ships with the chain to its tasks.
    ``TransitionParser.train`` on a licensed treebank gives the
    reference-band path; ``distill`` learns the rule cascade absent one.
    Install it with ``register_weighted_models(dep_model_path=p)``.
    """

    def __init__(self, model_path: str):
        from corenlp_ray.models.transition_parser import TransitionParser

        self.model = TransitionParser.load(model_path)

    def _parse(self, words, tags):
        hs, ls = self.model.parse(words, tags)
        # the model is 1-based with 0 = ROOT
        return [h - 1 if h > 0 else -1 for h in hs], ls
