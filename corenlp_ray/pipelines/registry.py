"""Stage registry + dependency-ordered pipeline assembly.

The analogue of the reference's annotator framework: named annotators with
``requires()`` / ``requirementsSatisfied()`` contracts, topologically
ordered at build time (/root/reference/src/edu/stanford/nlp/pipeline/
Annotator.java:54-84, StanfordCoreNLP.ensurePrerequisiteAnnotators
:481-553), plus the custom-annotator plugin point
(customAnnotatorClass.*, StanfordCoreNLP.java:150,686-688).

A Stage is (name, requires, provides, fn-or-class, constructor kwargs);
``provides`` maps each column the stage writes to its Arrow type. The
registry is the ONE definition of chain order and prerequisites:
``build(names, columns)`` closes the request over ``requires``/
``provides`` and returns the stages in registration order, which is the
chain order. There is one execution shape: ``Chain`` runs what ``build``
returns in one process over one column store ``cols`` (column name →
Python list, stages/_cache.py), and ``launch`` maps a chain onto a
Dataset as plain tasks. ``apply``, ``extract``, the fused KG chain and
the simple API all run a ``Chain``. Demand-driven assembly (the
simple-API trick, simple/Document.java): ask for only the stages whose
outputs you need.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Callable, Dict, Iterable, List, Sequence, Union

import pyarrow as pa


@dataclass(frozen=True)
class Stage:
    name: str
    requires: tuple
    # {column: Arrow type} of the columns written into ``cols``; an
    # extractor provides none
    provides: dict
    fn: Union[Callable, type]
    # constructor kwargs of a class ``fn`` (e.g. a trained model's path)
    init_kwargs: dict = field(default_factory=dict)


_REGISTRY: Dict[str, Stage] = {}


def register(stage: Stage) -> Stage:
    """Add a stage, or replace one in place (a re-registered name keeps
    its chain position). A column's default provider is the FIRST stage
    registered with it: an alternative implementation registered later
    under its own name (``coref.full``) runs only when requested."""
    _REGISTRY[stage.name] = stage
    return stage


def get(name: str) -> Stage:
    return _REGISTRY[name]


def registry() -> Dict[str, Stage]:
    return dict(_REGISTRY)


def build(names: Sequence[str], columns: Iterable[str] = ()) -> List[Stage]:
    """The named stages plus the providers of every column they (and
    ``columns``) require, transitively, in chain order."""
    provider: Dict[str, str] = {}
    for st in _REGISTRY.values():
        for p in st.provides:
            provider.setdefault(p, st.name)
    needed = {n: _REGISTRY[n] for n in names}
    # (column, requiring stage): a stage that rewrites a column it reads
    # (coref.full's men_*) does not provide it to itself
    fringe = [(c, None) for c in columns] + [
        (r, st.name) for st in needed.values() for r in st.requires]
    while fringe:
        req, by = fringe.pop()
        if any(req in st.provides for st in needed.values()
               if st.name != by):
            continue
        if req not in provider:
            raise ValueError(f"{req!r} is required but nothing provides it")
        st = needed[provider[req]] = _REGISTRY[provider[req]]
        fringe.extend((r, st.name) for r in st.requires)
    chain = [st for st in _REGISTRY.values() if st.name in needed]
    done: set = set()
    for st in chain:
        if not done.issuperset(st.requires):
            raise ValueError(f"stage {st.name} is registered before the "
                             f"providers of {st.requires}")
        done.update(st.provides)
    return chain


def instantiate(st: Stage) -> Callable:
    """The in-process callable of a stage: a class is constructed with
    its ``init_kwargs``, a function is itself."""
    return st.fn(**st.init_kwargs) if isinstance(st.fn, type) else st.fn


class Chain:
    """Resolved stages run in order in ONE process over one column store
    ``cols``: each stage reads upstream columns from it and writes the
    columns it provides into it, so no column is converted from Arrow
    twice and none is converted to Arrow unless the annotated table is
    the output. The reference's execution shape: one in-process
    annotator pipeline per document (AnnotationPipeline.java:66-83).
    Every stage takes ``(batch, cols)``, and so does a chain; an
    extractor (annotated docs → rows of another schema) is just a
    chain's last stage, and its table is the chain's output."""

    def __init__(self, stages: Sequence[Stage]):
        self.chain = {st.name: instantiate(st) for st in stages}
        # every provided column in chain order; a later provider of a
        # column replaces it and moves it to its own place
        self.columns: dict = {}
        for st in stages:
            for name, typ in dict(st.provides).items():
                self.columns.pop(name, None)
                self.columns[name] = typ
        self.extracts = bool(stages) and not stages[-1].provides

    def __call__(self, batch, cols: dict | None = None):
        cols = {} if cols is None else cols
        out = batch
        for stage in self.chain.values():
            out = stage(batch, cols=cols)
        if self.extracts:
            return out
        # the Arrow boundary: a provided column replaces an input one
        out = batch.drop_columns([c for c in self.columns
                                  if c in batch.column_names])
        for name, typ in self.columns.items():
            out = out.append_column(name, pa.array(cols[name], type=typ))
        return out


def stage_kernel(name: str | None = None):
    """Decorator for a stage's ``(batch, cols)`` kernel: a function, or
    a class's ``__call__`` (the batch is the last positional argument).
    A chain passes its ``cols``. Called on its own, the kernel runs as
    a one-stage ``Chain``, so its columns reach Arrow the same way, with
    the types registered stage ``name`` declares. An extractor has no
    ``name``; its table is the output."""
    def wrap(fn):
        @wraps(fn)
        def run(*args, cols: dict | None = None, **kw):
            if cols is not None:
                return fn(*args, cols=cols, **kw)
            if name and name not in _REGISTRY:
                import corenlp_ray.pipelines.kg  # noqa: F401  (registers it)
            *head, batch = args
            return Chain([Stage(name or fn.__name__, (),
                                _REGISTRY[name].provides if name else {},
                                partial(fn, *head, **kw))])(batch)
        return run
    return wrap


def launch(ds, cls: type, ctor: dict, **map_kwargs):
    """``cls(**ctor)`` (a ``Chain``) as ONE map_batches of plain tasks
    over ``ds`` — the only way a chain reaches a Dataset. The instance
    is built HERE, on the driver (a Ray worker imports a fresh default
    registry, so resolving there would drop registered weighted slots),
    and pickled into the tasks; the operator is named after ``cls``.

    Tasks, not an actor pool: a pool started a process per CPU for each
    Dataset pass, imported ``corenlp_ray`` into it and built the chain
    before any work ran, and it reserved its CPUs, so chained pools (or
    one pool on one CPU) starved the tasks that fed them. Shipping the
    chain is cheap: the fused KG chain pickles to 61 KB and unpickles in
    about 2 ms; with the pos, ner, depparse, coref and kbp slots
    registered (small distilled models), 123 KB in about 1.5 ms. The
    weights ship with every task, so a large model pays its unpickle
    once per block. perfbench ``kg_job`` (2-CPU cluster, 1-core VM, 10
    pairs): 172 → 227 pages/s, peak RSS 1,690 → 1,428 MB."""
    return ds.map_batches(cls(**ctor), batch_format="pyarrow", **map_kwargs)


def apply(ds, names: Sequence[str]):
    """The named stages and their prerequisites as one chain over a
    Dataset (columns appended)."""
    return launch(ds, Chain, {"stages": build(names)})


def extract(ds, extractor: Stage, names: Sequence[str] = ()):
    """``apply`` with ``extractor`` (annotated docs → rows of its own
    schema) as the chain's last stage."""
    return launch(ds, Chain, {"stages": build(names) + [extractor]})
