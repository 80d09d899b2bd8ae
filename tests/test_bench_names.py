"""Every cnre name that the benchmark reads or wraps still exists.

``Tracer.install`` (bench/tracer.py) skips a name that cnre no longer has,
and that name's per-layer figure then reads 0. So removing or renaming a
function the tracer wraps would pass every other test. These tests resolve:

- every (owner, name) that ``Tracer.install`` wraps or counts, read by
  running it with recording stand-ins for its patchers;
- every ``<cnre module>.<name>`` chain that bench/checks.py and
  bench/workloads.py read, found in their syntax trees;
- the methods and properties the bench calls on cnre objects.

Each must resolve, and a function or class must be callable.
"""

import ast
import importlib
import os
import sys

import pytest

from cnre import dataio, evalexplain, tensorgrad as tg, training

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402

# Names the tracer still asks for that cnre no longer has. Each reads 0 in
# a traced run until bench/tracer.py stops asking for it; bench/ cannot
# change in the same change as src/, so they are listed here instead.
KNOWN_MISSING = {
    # the op-by-op mediators moved to tests/unfused.py: training and
    # inference score each (operator, behavior) group with one function
    "cnre.reasoning.strong_mediator",
    "cnre.reasoning.conjunction_mediator",
    "cnre.reasoning.disjunction_mediator",
    # deleted with no caller left: explain scores through the batch scorer
    "cnre.training.predict",
    # evalexplain reads chain codes from the dataset, not per-pair flags
    "cnre.evalexplain.observe_chain",
}

# Methods and properties the bench calls on cnre objects.
OBJECT_READS = {
    training.CnreModel: ("reason_batch", "cascade", "build_indices", "fit", "save",
                         "from_checkpoint"),
    dataio.InteractionDataset: ("per_behavior_edges", "user_items", "encode_item",
                                "decode_user", "decode_item"),
    dataio.BehaviorSpec: ("index_of", "target_index"),
    tg.ParameterStore: ("state_arrays",),
    evalexplain.ExplanationRecord: ("to_json_line", "from_json_line"),
}
PROPERTIES = {"per_behavior_edges", "target_index"}


def _owner_name(owner):
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def _tracer_targets():
    """(owner, name) of every attribute ``Tracer.install`` wraps or counts."""
    seen = []
    t = tracer.Tracer()
    t._wrap = lambda owner, attr, *args, **kwargs: seen.append((owner, attr))
    t._count = lambda owner, attr, counter: seen.append((owner, attr))
    t.install()  # patches nothing: both patchers only record
    return seen


def _module_reads(filename):
    """(cnre module, attribute chain) of every ``<module>.<name>...`` a bench file reads."""
    with open(os.path.join(BENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "cnre"
               for alias in node.names}
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            reads.add((modules[node.id], tuple(reversed(chain))))
    return reads


TRACER_TARGETS = {f"{_owner_name(o)}.{a}": (o, a) for o, a in _tracer_targets()}
WRAPPED = sorted(TRACER_TARGETS.keys() - KNOWN_MISSING)
MODULE_READS = sorted(_module_reads("checks.py") | _module_reads("workloads.py"))


@pytest.mark.parametrize("name", WRAPPED)
def test_tracer_wraps_a_callable(name):
    owner, attr = TRACER_TARGETS[name]
    # _wrap reads a class's own __dict__, so an inherited method is not wrapped
    present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
    assert present, f"bench/tracer.py wraps {name}, which cnre no longer has"
    assert callable(getattr(owner, attr)), f"{name} is not callable"


@pytest.mark.parametrize("name", sorted(KNOWN_MISSING))
def test_known_missing_name_is_missing_and_still_wrapped(name):
    assert name in TRACER_TARGETS, f"the tracer no longer asks for {name}: unlist it"
    owner, attr = TRACER_TARGETS[name]
    assert not hasattr(owner, attr), f"{name} exists again: unlist it"


def test_the_scans_find_the_names_the_bench_needs():
    assert {"cnre.reasoning.reason_batch", "cnre.retrieval.query",
            "cnre.propagation.hypergraph_incidence",
            "cnre.reasoning.GateSnapshot.from_cascade"} <= set(WRAPPED)
    assert {("training", ("predict_logit",)), ("reasoning", ("reason",)),
            ("cli", ("build_split",))} <= set(MODULE_READS)


@pytest.mark.parametrize("module, chain", MODULE_READS,
                         ids=[f"{m}.{'.'.join(c)}" for m, c in MODULE_READS])
def test_bench_module_read_resolves_to_a_callable(module, chain):
    value = importlib.import_module(f"cnre.{module}")
    for attr in chain:
        assert hasattr(value, attr), f"bench reads cnre.{module}.{'.'.join(chain)}, which is gone"
        value = getattr(value, attr)
    assert callable(value), f"cnre.{module}.{'.'.join(chain)} is not callable"


@pytest.mark.parametrize("cls, attr", [(c, a) for c, attrs in OBJECT_READS.items()
                                       for a in attrs],
                         ids=[f"{c.__name__}.{a}" for c, attrs in OBJECT_READS.items()
                              for a in attrs])
def test_bench_object_read_resolves(cls, attr):
    assert hasattr(cls, attr), f"bench reads {cls.__name__}.{attr}, which is gone"
    assert attr in PROPERTIES or callable(getattr(cls, attr))
