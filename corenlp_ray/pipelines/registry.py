"""Stage registry + dependency-ordered pipeline assembly.

The analogue of the reference's annotator framework: named annotators with
``requires()`` / ``requirementsSatisfied()`` contracts, topologically
ordered at build time (/root/reference/src/edu/stanford/nlp/pipeline/
Annotator.java:54-84, StanfordCoreNLP.ensurePrerequisiteAnnotators
:481-553), plus the custom-annotator plugin point
(customAnnotatorClass.*, StanfordCoreNLP.java:150,686-688).

A Stage is (name, requires, provides, fn-or-actor-class, map_batches
kwargs, constructor kwargs). The registry is the ONE definition of chain
order and prerequisites: ``build(names, columns)`` closes the request
over ``requires``/``provides`` and returns the stages in registration
order, which is the chain order. Every execution shape composes what
``build`` returns: ``apply`` chains the stages onto a Dataset (one
map_batches each), the fused KG actor and the simple API call them
in-process (``instantiate``). Demand-driven assembly (the simple-API
trick, simple/Document.java): ask for only the stages whose outputs you
need.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Union


@dataclass(frozen=True)
class Stage:
    name: str
    requires: tuple
    provides: tuple
    fn: Union[Callable, type]
    # map_batches kwargs for the distributed path (actor pools etc.);
    # a dict, or a zero-arg callable evaluated at apply time (lets pool
    # sizes adapt to the cluster CPU count)
    compute: Union[dict, Callable[[], dict]] = field(default_factory=dict)
    # constructor kwargs of an actor-class ``fn`` (e.g. a trained
    # model's path): shipped as fn_constructor_kwargs, and readable
    # in-process without evaluating ``compute``
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
    fringe = list(columns) + [r for st in needed.values()
                              for r in st.requires]
    while fringe:
        req = fringe.pop()
        if any(req in st.provides for st in needed.values()):
            continue
        if req not in provider:
            raise ValueError(f"{req!r} is required but nothing provides it")
        st = needed[provider[req]] = _REGISTRY[provider[req]]
        fringe.extend(st.requires)
    chain = [st for st in _REGISTRY.values() if st.name in needed]
    done: set = set()
    for st in chain:
        if not done.issuperset(st.requires):
            raise ValueError(f"stage {st.name} is registered before the "
                             f"providers of {st.requires}")
        done.update(st.provides)
    return chain


def instantiate(st: Stage) -> Callable:
    """The in-process callable of a stage: an actor class is constructed
    with its ``init_kwargs``, a function is itself."""
    return st.fn(**st.init_kwargs) if isinstance(st.fn, type) else st.fn


def map_stage(ds, st: Stage, distributed: bool = True):
    """One stage as one map_batches: ``st.compute`` (an actor pool for
    model stages) when distributed, else a plain in-process task."""
    if not distributed:
        fn = instantiate(st)
        if isinstance(st.fn, type):
            fn = lambda b, _i=fn: _i(b)  # noqa: E731
        return ds.map_batches(fn, batch_format="pyarrow")
    kwargs = st.compute() if callable(st.compute) else dict(st.compute)
    if st.init_kwargs:
        kwargs["fn_constructor_kwargs"] = st.init_kwargs
    return ds.map_batches(st.fn, batch_format="pyarrow", **kwargs)


def apply(ds, names: Sequence[str], distributed: bool = True):
    """Chain the (dependency-ordered) stages onto a Dataset.

    distributed=False forces plain task stages with the stateless variants
    (useful under tight CPU budgets / unit tests)."""
    for st in build(names):
        ds = map_stage(ds, st, distributed)
    return ds
