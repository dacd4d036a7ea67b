"""Stage registry + dependency-ordered pipeline assembly.

The analogue of the reference's annotator framework: named annotators with
``requires()`` / ``requirementsSatisfied()`` contracts, topologically
ordered at build time (/root/reference/src/edu/stanford/nlp/pipeline/
Annotator.java:54-84, StanfordCoreNLP.ensurePrerequisiteAnnotators
:481-553), plus the custom-annotator plugin point
(customAnnotatorClass.*, StanfordCoreNLP.java:150,686-688).

A Stage is (name, requires, provides, fn-or-class, constructor kwargs).
The registry is the ONE definition of chain order and prerequisites:
``build(names, columns)`` closes the request over ``requires``/
``provides`` and returns the stages in registration order, which is the
chain order. There is one execution shape: ``Chain`` runs what ``build``
returns in one process over a shared pylist cache, and ``launch`` maps a
chain onto a Dataset (one actor pool when distributed on ≥2 CPUs,
else plain tasks). ``apply``, ``extract``, the fused KG actor and the
simple API all run a ``Chain``. Demand-driven assembly (the simple-API
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


class Chain:
    """Resolved stages run in order in ONE process over one shared pylist
    cache: each stage reads upstream columns from it and deposits what
    it builds (stages/_cache.py), so no column is converted from Arrow
    twice. The reference's execution shape: one in-process annotator
    pipeline per document (AnnotationPipeline.java:66-83). Every stage
    takes ``(batch, cols=None)``, and so does a chain; an extractor
    (annotated docs → rows of another schema) is just a chain's last
    stage."""

    def __init__(self, stages: Sequence[Stage]):
        self.chain = {st.name: instantiate(st) for st in stages}

    def __call__(self, batch, cols: dict | None = None):
        cols = {} if cols is None else cols
        for stage in self.chain.values():
            batch = stage(batch, cols=cols)
        return batch


def _ncpus() -> int:
    import ray

    try:
        return max(1, int(ray.cluster_resources().get("CPU", 4)))
    except Exception:
        return 4


def launch(ds, cls: type, ctor: dict, distributed: bool = True,
           **map_kwargs):
    """``cls(**ctor)`` (a ``Chain``) as ONE map_batches over ``ds`` — the
    only way a chain reaches a Dataset. ``ctor["stages"]`` is resolved
    HERE, on the driver: a Ray worker imports a fresh default registry,
    so resolving there would drop registered weighted slots.

    The shape is chosen by ``distributed`` and the cluster's CPU count:
      * task map — ``distributed=False``, or a cluster with ONE CPU: one
        instance built on the driver and shipped to plain tasks. On one
        CPU a pool would hold the only CPU and starve the upstream read
        tasks, so the pipeline would never finish.
      * actor pool — ``distributed=True`` on ≥2 CPUs: one actor per CPU
        minus a driver/IO share, so the pool never reserves EVERY CPU;
        each actor builds its stages once.
    Either way the operator is named after ``cls``."""
    if not distributed or _ncpus() == 1:
        return ds.map_batches(cls(**ctor), batch_format="pyarrow",
                              **map_kwargs)
    return ds.map_batches(cls, batch_format="pyarrow",
                          concurrency=_ncpus() - 1, num_cpus=1,
                          fn_constructor_kwargs=ctor, **map_kwargs)


def apply(ds, names: Sequence[str], distributed: bool = True):
    """The named stages and their prerequisites as one chain over a
    Dataset (columns appended)."""
    return launch(ds, Chain, {"stages": build(names)}, distributed)


def extract(ds, extractor: Stage, names: Sequence[str] = (),
            distributed: bool = True):
    """``apply`` with ``extractor`` (annotated docs → rows of its own
    schema) as the chain's last stage."""
    return launch(ds, Chain, {"stages": build(names) + [extractor]},
                  distributed)
