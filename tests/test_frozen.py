"""One frozen base for every value.

Each value type derives from ``motive._Frozen``: setting or deleting any of
its slots raises, and copy, deepcopy and pickle give back an equal value
with an equal hash, also in another process with another hash seed.
"""

import ast
import copy
import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import f1kit
from f1kit.blueprint import CrossedElem, SubsetIndex, plucker_relations, separation_monomial, unit_monomial
from f1kit.genseries import EGFSeries
from f1kit.motive import MotClass, _Frozen
from f1kit.torif import Complement, DisjointUnion, Product, TorifExpr, Torus, constructible_open_stratum
from f1kit.treeop import RootedTree, StratumDescriptor

_X = MotClass((1, 2, 3))
_TREE = RootedTree.from_nested(((1,), (((2, 3), ()),)))

# one value of each type
VALUES = [
    _X,
    EGFSeries([MotClass.one(), _X]),
    _TREE,
    StratumDescriptor(_TREE, 2),
    Torus(2),
    DisjointUnion([Torus(0), Torus(1)]),
    Product([Torus(1), Torus(1)]),
    Complement(Torus(2), Torus(1), [0]),
    constructible_open_stratum(2, 5),
    SubsetIndex(5, (1, 3)),
    separation_monomial(5, (1, 2), (3, 4)),
    plucker_relations(5)[1],
    CrossedElem(5, [unit_monomial(5)], (2, 1, 3, 4, 5)),
]
_IDS = [type(v).__name__ for v in VALUES]


def _subclasses(cls):
    return {sub for direct in cls.__subclasses__() for sub in {direct} | _subclasses(direct)}


def test_every_value_type_has_a_value_here():
    assert {type(v) for v in VALUES} == _subclasses(_Frozen) - {TorifExpr}
    assert len(VALUES) == 13


def _slots(value):
    return [name for cls in type(value).__mro__ for name in cls.__dict__.get("__slots__", ())]


@pytest.mark.parametrize("value", VALUES, ids=_IDS)
def test_no_slot_can_be_set_or_deleted(value):
    message = "^%s is immutable$" % type(value).__name__
    for name in _slots(value) + ["other"]:
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)


def _parts(value):
    # StratumDescriptor compares by identity: compare its parts
    return (value.tree, value.d, value.stratum_class()) if isinstance(value, StratumDescriptor) else value


_ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy}
_ROUND_TRIPS.update(
    ("pickle %d" % protocol, lambda v, p=protocol: pickle.loads(pickle.dumps(v, p)))
    for protocol in range(0, pickle.HIGHEST_PROTOCOL + 1)
)


@pytest.mark.parametrize("trip", list(_ROUND_TRIPS.values()), ids=list(_ROUND_TRIPS))
@pytest.mark.parametrize("value", VALUES, ids=_IDS)
def test_copy_and_pickle_give_an_equal_value(value, trip):
    got = trip(value)
    assert type(got) is type(value)
    assert _parts(got) == _parts(value)
    if type(value).__hash__ not in (None, object.__hash__):
        assert hash(got) == hash(value)


@pytest.mark.parametrize("value", VALUES, ids=_IDS)
def test_the_state_is_the_default_slot_state(value):
    # built from the slots, so it needs no object.__getstate__ (Python 3.11 on)
    state = {name: getattr(value, name) for name in _slots(value) if hasattr(value, name)}
    assert value.__getstate__() == (None, state)
    if hasattr(object, "__getstate__"):
        assert value.__getstate__() == object.__getstate__(value)


@pytest.mark.parametrize("protocol", range(0, pickle.HIGHEST_PROTOCOL + 1))
def test_a_stratum_pickles_without_its_class(protocol):
    # rebuilt from tree and d, so its class is made again on load
    stratum = StratumDescriptor(_TREE, 2)
    data = pickle.dumps(stratum, protocol)
    assert b"_class" not in data
    assert pickle.loads(data).stratum_class() == stratum.stratum_class()


_PICKLED = """
import pickle, sys
from f1kit.torif import constructible_open_stratum
sys.stdout.buffer.write(pickle.dumps(constructible_open_stratum(2, 6)))
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_a_torification_pickled_under_another_hash_seed_loads_equal(seed):
    # expression hashes hash strings, so they differ between seeds
    env = dict(os.environ, PYTHONPATH=str(Path(f1kit.__file__).parent.parent), PYTHONHASHSEED=seed)
    data = subprocess.run([sys.executable, "-c", _PICKLED], capture_output=True, env=env, check=True).stdout
    got, want = pickle.loads(data), constructible_open_stratum(2, 6)
    assert got == want
    (_, expr), (_, local) = got.pieces[0], want.pieces[0]
    assert expr == local and hash(expr) == hash(local)
    assert expr in {local} and local in {expr}
    assert expr.removed.parts[0] in set(local.removed.parts)


def test_immutability_is_stated_once():
    """Only _Frozen sets or deletes attributes, and every class with __slots__ derives from it."""
    # a definition or an assignment, not a call such as object.__setattr__(...)
    hooks = re.compile(r"^\s*(?:def\s+)?(__setattr__|__delattr__)\s*[(=]", re.M)
    found, slotted = [], []
    for path in sorted(Path(f1kit.__file__).parent.glob("*.py")):
        text = path.read_text()
        found += ["%s: %s" % (path.name, m.group(1)) for m in hooks.finditer(text)]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(s, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in s.targets)
                for s in node.body
            ):
                slotted.append((path.stem, node.name))
    assert found == ["motive.py: __setattr__", "motive.py: __delattr__"]
    bare = [
        "%s.%s" % (module, name)
        for module, name in slotted
        if not issubclass(getattr(importlib.import_module("f1kit." + module), name), _Frozen)
    ]
    assert bare == [] and ("motive", "MotClass") in slotted
