"""One frozen base for every value.

Each value type derives from ``motive._Frozen``: setting or deleting any of
its slots raises, only ``_Frozen``'s writers (and ``motive._of_ints``) set
one, every value hashes, and copy, deepcopy and pickle rebuild it through
its constructor to an equal value with an equal hash, also in another
process with another hash seed.
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
    assert got == value and hash(got) == hash(value)


@pytest.mark.parametrize("value", VALUES, ids=_IDS)
def test_a_value_is_a_set_member_and_a_dict_key(value):
    twin = copy.deepcopy(value)
    assert twin in {value} and value in {twin}
    assert {value: 1}[twin] == 1 and len({value, twin}) == 1


@pytest.mark.parametrize("value", VALUES, ids=_IDS)
def test_a_value_reduces_to_its_constructor_arguments(value):
    if isinstance(value, RootedTree):
        # a tree keeps its own form, so its flag ids survive
        assert value.__reduce__() == (RootedTree.from_nested, (value._form,))
    else:
        assert value.__reduce__() == (type(value), value._args())
        assert type(value)(*value._args()) == value


def _forged(coeffs):
    forged = MotClass((1,))
    object.__setattr__(forged, "_coeffs", coeffs)
    return pickle.dumps(forged)


def test_a_load_checks_the_value_again():
    # a stale or forged pickle goes through the constructor, which trims and checks its coefficients
    assert pickle.loads(_forged((0, 1, 0))) == MotClass((0, 1))
    assert pickle.loads(_forged((0, 1, 0))).coeffs == (0, 1)
    with pytest.raises(TypeError, match="^coefficients must be ints, got 'x'$"):
        pickle.loads(_forged(("x",)))


def test_descriptors_are_equal_exactly_when_their_trees_and_d_are():
    reordered = RootedTree.from_nested(((1,), (((3, 2), ()),)))
    other = RootedTree.from_nested(((2,), (((1, 3), ()),)))
    assert reordered == _TREE and reordered._form != _TREE._form and other != _TREE
    strata = [(tree, d, StratumDescriptor(tree, d)) for tree in (_TREE, reordered, other) for d in (1, 2)]
    for tree, d, stratum in strata:
        for tree2, d2, stratum2 in strata:
            assert (stratum == stratum2) is (tree == tree2 and d == d2)
            if stratum == stratum2:
                assert hash(stratum) == hash(stratum2)


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


# the classes that define one of these, and which: _Frozen, and the overrides each with its reason in a comment
_IDENTITY = {
    ("motive", "_Frozen"): {"__eq__", "__hash__", "__reduce__"},
    ("motive", "MotClass"): {"__eq__", "__hash__"},
    ("torif", "TorifExpr"): {"__eq__", "__hash__"},
    ("treeop", "RootedTree"): {"__eq__", "__hash__", "__reduce__"},
}
_HOOKS = {"__eq__", "__hash__", "__reduce__", "__reduce_ex__", "__getstate__", "__setstate__"}


def _hooks(node):
    """The hooks a node defines: by a def, or by an assignment such as __hash__ = ... or cls.__eq__ = ..."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return _HOOKS & {node.name}
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return _HOOKS.intersection(getattr(t, "attr", getattr(t, "id", None)) for t in targets)


def test_identity_is_stated_once():
    """Only _Frozen and the three named overrides define equality, hash, copy or pickle; nothing uses copyreg."""
    found, count = {}, 0
    for path in sorted(Path(f1kit.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "copyreg" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            count += len(_hooks(node))
            if isinstance(node, ast.ClassDef) and set().union(*map(_hooks, node.body)):
                found[(path.stem, node.name)] = set().union(*map(_hooks, node.body))
    # and none outside a class body
    assert found == _IDENTITY and count == sum(map(len, _IDENTITY.values()))


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


# a slot is written by object.__setattr__ or a member descriptor's __set__, and a value made past its constructor by
# object.__new__; a call by name, such as getattr(x, "__set__"), counts too
_WRITES = {"__setattr__", "__set__", "__new__"}


def test_writing_a_value_is_stated_once():
    """Only _Frozen's writers and _of_ints, which builds every ring result, write a slot or skip a constructor."""
    found = []
    for path in sorted(Path(f1kit.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in _WRITES
                        or isinstance(node, ast.Constant) and node.value in _WRITES):
                    found.append((path.stem, getattr(top, "name", None)))
    assert sorted(set(found)) == [("motive", "_Frozen"), ("motive", "_of_ints")]
    # _of_ints' two lines: a bare MotClass and its one slot
    assert found.count(("motive", "_of_ints")) == 2
