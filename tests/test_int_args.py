"""One rule for integer arguments, and one for argument kinds.

Every public entry with an integer argument refuses a non-int and a value
below the argument's floor with one ValueError, and a bool counts as its int:
what an entry stores, keys or prints is a plain int.  An argument of the
wrong kind (not a tree, not a collection, not a JSON object, ...) raises
TypeError("<name> must be <kind>"), stated once by ``motive._check_kind``.
Every other error path is reached here too, and every message a ``raise``
in the sources states is pinned by some test.
"""

import ast
import contextlib
import inspect
import io
import json
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import f1kit
from f1kit import cli, genseries, torif
from f1kit.blueprint import (
    BlueprintRel,
    CrossedElem,
    Monomial,
    SubsetIndex,
    centralizer_subgroup,
    clear_denominators,
    count_max_simplexes,
    crossed_identity,
    crossed_mul,
    crossed_relations,
    embed_perm,
    full_product_monomial,
    index_set,
    is_simplex,
    localize_relation,
    perm_action,
    perm_relation,
    plucker_relations,
    relation_triples,
    separation_monomial,
    unit_monomial,
)
from f1kit.genseries import (
    EGFSeries,
    f1m_count,
    m0_open_class,
    mbar0_class,
    open_stratum_class,
    solve_point_count_ode,
    solve_tdn_ode,
    stratum_factor_class,
    tdn_class,
)
from f1kit.motive import MotClass, blowup_class, expand_falling, expand_falling_stirling, proj_class, signed_stirling1
from f1kit.torif import (
    Complement,
    ConstructibleTorification,
    DisjointUnion,
    Product,
    Torus,
    affine_minus_points,
    affine_space_expr,
    atoms,
    blowup_decomposition,
    constructible_open_stratum,
    equiv_shadow,
    eval_class,
    expr_from_json,
    is_strongly_complemented,
    product_torification,
    torify_proj_space,
    torify_tree_curve,
)
from f1kit.treeop import (
    RootedTree,
    StratumDescriptor,
    compose,
    contract_edge,
    enumerate_stable_trees,
    forget_marking,
    graft,
    graft_all,
    permute_markings,
    strata_sum,
    strata_table,
    tree_class,
    tree_points,
)

_X = MotClass((1, 1))
_TREE = RootedTree.corolla((1, 2))
_CT = torify_proj_space(1)
_REL = plucker_relations(4)[0]
_IDX = index_set(5)[0]

# (entry and argument, call taking that argument, floor, message); every other
# argument of the call is valid
_ENTRIES = [
    ("MotClass.torus", MotClass.torus, 0, "torus power must be a nonnegative int"),
    ("MotClass.lefschetz", MotClass.lefschetz, 0, "lefschetz power must be a nonnegative int"),
    ("MotClass.__pow__", _X.__pow__, 0, "exponent must be a nonnegative int"),
    ("MotClass.count_points", _X.count_points, 0, "m must be a nonnegative int"),
    ("proj_class", proj_class, -1, "projective dimension must be an int >= -1"),
    ("blowup_class", lambda c: blowup_class(_X, _X, c), 1, "codimension must be a positive int"),
    ("expand_falling", expand_falling, 0, "factor count must be a nonnegative int"),
    ("signed_stirling1", signed_stirling1, 0, "m must be a nonnegative int"),
    ("expand_falling_stirling", expand_falling_stirling, 0, "m must be a nonnegative int"),
    ("solve_tdn_ode.d", lambda d: solve_tdn_ode(d, 3), 1, "d must be a positive int"),
    ("solve_tdn_ode.order", lambda o: solve_tdn_ode(1, o), 1, "order must be >= 1"),
    ("solve_point_count_ode.d", lambda d: solve_point_count_ode(d, 2, 3), 1, "d must be a positive int"),
    ("solve_point_count_ode.m", lambda m: solve_point_count_ode(1, m, 3), 0, "m must be a nonnegative int"),
    ("solve_point_count_ode.order", lambda o: solve_point_count_ode(1, 2, o), 1, "order must be >= 1"),
    ("tdn_class.d", lambda d: tdn_class(d, 3), 1, "d must be a positive int"),
    ("tdn_class.n", lambda n: tdn_class(1, n), 1, "n must be a positive int"),
    ("mbar0_class", mbar0_class, 2, "n must be an int >= 2"),
    ("f1m_count.d", lambda d: f1m_count(d, 3, 2), 1, "d must be a positive int"),
    ("f1m_count.n", lambda n: f1m_count(1, n, 2), 1, "n must be a positive int"),
    ("f1m_count.m", lambda m: f1m_count(1, 3, m), 0, "m must be a nonnegative int"),
    ("open_stratum_class.d", lambda d: open_stratum_class(d, 3), 1, "d must be a positive int"),
    ("open_stratum_class.n", lambda n: open_stratum_class(1, n), 2, "n must be an int >= 2"),
    ("stratum_factor_class.n", lambda n: stratum_factor_class(1, n), 2, "n must be an int >= 2"),
    ("m0_open_class", m0_open_class, 3, "n must be an int >= 3"),
    ("tree_class", lambda d: tree_class(_TREE, d), 1, "d must be a positive int"),
    ("tree_points.d", lambda d: tree_points(_TREE, d, 2), 1, "d must be a positive int"),
    ("tree_points.m", lambda m: tree_points(_TREE, 1, m), 0, "m must be a nonnegative int"),
    ("StratumDescriptor", lambda d: StratumDescriptor(_TREE, d), 1, "d must be a positive int"),
    ("enumerate_stable_trees", enumerate_stable_trees, 2, "n must be an int >= 2"),
    ("strata_sum.d", lambda d: strata_sum(d, 3), 1, "d must be a positive int"),
    ("strata_sum.n", lambda n: strata_sum(1, n), 2, "n must be an int >= 2"),
    ("strata_table.d", lambda d: strata_table(d, 3), 1, "d must be a positive int"),
    ("strata_table.n", lambda n: strata_table(1, n), 2, "n must be an int >= 2"),
    ("Torus", Torus, 0, "torus dimension must be a nonnegative int"),
    ("torify_proj_space", torify_proj_space, 0, "d must be a nonnegative int"),
    ("affine_space_expr", affine_space_expr, 0, "d must be a nonnegative int"),
    ("affine_minus_points.d", lambda d: affine_minus_points(d, 2), 1, "d must be a positive int"),
    ("affine_minus_points.r", lambda r: affine_minus_points(1, r), 0, "r must be a nonnegative int"),
    ("constructible_open_stratum.d", lambda d: constructible_open_stratum(d, 3), 1, "d must be a positive int"),
    ("constructible_open_stratum.n", lambda n: constructible_open_stratum(1, n), 2, "n must be an int >= 2"),
    ("blowup_decomposition", lambda c: blowup_decomposition(_CT, ["cell0:t0"], c), 1,
     "codimension must be a positive int"),
    ("SubsetIndex", lambda n: SubsetIndex(n, (1, 2)), 4, "n must be an int >= 4"),
    ("index_set", index_set, 4, "n must be an int >= 4"),
    ("count_max_simplexes", count_max_simplexes, 4, "n must be an int >= 4"),
    ("full_product_monomial", full_product_monomial, 4, "n must be an int >= 4"),
    ("unit_monomial", unit_monomial, 4, "n must be an int >= 4"),
    ("plucker_relations", plucker_relations, 4, "n must be an int >= 4"),
    ("separation_monomial", lambda n: separation_monomial(n, (1, 2), (3, 4)), 4, "n must be an int >= 4"),
    ("crossed_identity", crossed_identity, 4, "n must be an int >= 4"),
    ("CrossedElem", lambda n: CrossedElem(n, [], (1, 2, 3, 4)), 4, "n must be an int >= 4"),
    ("is_simplex", lambda n: is_simplex([], n), 4, "n must be an int >= 4"),
    ("embed_perm", lambda n: embed_perm((), n), 0, "n must be a nonnegative int"),
    ("Monomial.n", Monomial, 4, "n must be an int >= 4"),
    ("Monomial.exps", lambda e: Monomial(5, [(_IDX, e)]), 0, "exponents must be nonnegative ints"),
    ("Monomial.f_denominator", lambda f: Monomial(5, (), f), 0, "denominator power must be a nonnegative int"),
    ("localize_relation", lambda k: localize_relation(_REL, k), 0, "k must be a nonnegative int"),
    ("centralizer_subgroup", centralizer_subgroup, 1, "g must be an int in 1..5"),
]

# a non-int and a value just below the floor, each refused with the entry's message
_ROWS = [
    pytest.param(call, value, message, id="%s(%r)" % (name, value))
    for name, call, floor, message in _ENTRIES
    for value in (1.0, floor - 1)
]
# stratum_factor_class checks d through proj_class(d - 1) first
_ROWS += [
    pytest.param(lambda d: stratum_factor_class(d, 3), 1.0, "projective dimension must be an int >= -1",
                 id="stratum_factor_class.d(1.0)"),
    pytest.param(lambda d: stratum_factor_class(d, 3), 0, "d must be a positive int", id="stratum_factor_class.d(0)"),
]
# the n of a blueprint entry is checked before its other arguments
_ROWS += [
    pytest.param(lambda n: CrossedElem(n, [], (1, 2, 3)), 3, "n must be an int >= 4", id="CrossedElem(3, (1, 2, 3))"),
    pytest.param(lambda n: is_simplex([], n), "a", "n must be an int >= 4", id="is_simplex('a')"),
    pytest.param(lambda n: embed_perm((1, 2), n), 1.5, "n must be a nonnegative int", id="embed_perm((1, 2), 1.5)"),
]
# an index may be any int, so only a non-int is refused
_ROWS += [
    pytest.param(_X.coefficient, 1.5, "k must be an int", id="MotClass.coefficient(1.5)"),
    pytest.param(_X.coefficient, "1", "k must be an int", id="MotClass.coefficient('1')"),
    pytest.param(EGFSeries([MotClass.one(), _X]).coeff, 1.0, "n must be an int", id="EGFSeries.coeff(1.0)"),
]

# an upper bound goes through the rule too, each range with its own text
_PAIRS = "pairs must be two disjoint pairs of distinct markings in 1..n"
_ROWS += [
    pytest.param(centralizer_subgroup, 6, "g must be an int in 1..5", id="centralizer_subgroup(6)"),
    pytest.param(lambda m: SubsetIndex(5, (1, m)), 6, "members must lie in 1..n", id="SubsetIndex(5, (1, 6))"),
    pytest.param(lambda m: SubsetIndex(5, (1, m)), 0, "members must lie in 1..n", id="SubsetIndex(5, (1, 0))"),
    pytest.param(lambda m: separation_monomial(5, (1, m), (3, 4)), 6, _PAIRS, id="separation_monomial(5, (1, 6), ..)"),
    pytest.param(lambda m: separation_monomial(5, (1, m), (3, 4)), 3, _PAIRS, id="separation_monomial(5, (1, 3), ..)"),
    pytest.param(lambda m: separation_monomial(5, (1, m), (3, 4)), 2.0, _PAIRS,
                 id="separation_monomial(5, (1, 2.0), ..)"),
    pytest.param(lambda p: separation_monomial(5, p, (3, 4)), (1,), _PAIRS, id="separation_monomial(5, (1,), ..)"),
]

# a coefficient string that int() does not read gets f1kit's message, not Python's "invalid literal"
_ROWS += [
    pytest.param(lambda c: MotClass.from_json({"basis": "T", "coeffs": ["1", c]}), c,
                 "coeffs must be decimal strings", id="MotClass.from_json(coeffs %r)" % c)
    for c in ("x", "1.5", "0x10")
]

@pytest.mark.parametrize("call,value,message", _ROWS)
def test_message_table(call, value, message):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


_MONO = unit_monomial(5)
_CROSSED = crossed_identity(5)
_PERM = (2, 1, 3, 4, 5)
_TREES = "trees must be RootedTrees"
_RELS = "relations must be BlueprintRels"
_CTS = "torifications must be ConstructibleTorifications"
_OBJECT = "JSON node must be an object"
_FORMS = "nested forms must be (inputs, children) pairs of collections"
_IDS = "flags must be a collection of hashable ids"
_VERTICES = "vertices must be a collection of hashable ids"
_VALUES_IDS = "flag map values must be hashable ids"

# a wrong kind, each refused with the entry's TypeError; every other argument of the call is valid
_KINDS = {
    # trees
    "compose(5, [t])": (lambda: compose(5, [_TREE]), _TREES),
    "compose(t, 5)": (lambda: compose(_TREE, 5), _TREES),
    "compose(t, [t, 5])": (lambda: compose(_TREE, [_TREE, 5]), _TREES),
    "graft(5, t, 1)": (lambda: graft(5, _TREE, 1), _TREES),
    "graft(t, 5, 1)": (lambda: graft(_TREE, 5, 1), _TREES),
    "graft_all(5, [t, t])": (lambda: graft_all(5, [_TREE, _TREE]), _TREES),
    "graft_all(t, None)": (lambda: graft_all(_TREE, None), _TREES),
    "forget_marking(5, 1)": (lambda: forget_marking(5, 1), _TREES),
    "permute_markings(5, {})": (lambda: permute_markings(5, {}), _TREES),
    "permute_markings(t, [1, 2])": (lambda: permute_markings(_TREE, [1, 2]), "pi must be a mapping"),
    "contract_edge(5, (1, 2))": (lambda: contract_edge(5, (1, 2)), _TREES),
    "contract_edge(t, 5)": (lambda: contract_edge(_TREE, 5), "edge must be a pair of flags"),
    "tree_class(5, 1)": (lambda: tree_class(5, 1), _TREES),
    "tree_points(None, 1, 1)": (lambda: tree_points(None, 1, 1), _TREES),
    "torify_tree_curve('x')": (lambda: torify_tree_curve("x"), _TREES),
    "from_nested(5)": (lambda: RootedTree.from_nested(5), _FORMS),
    "from_nested(((1, 2),))": (lambda: RootedTree.from_nested(((1, 2),)), _FORMS),
    "from_nested((5, ()))": (lambda: RootedTree.from_nested((5, ())), _FORMS),
    "from_nested(((1,), (5,)))": (lambda: RootedTree.from_nested(((1,), (5,))), _FORMS),
    "RootedTree(5, ...)": (lambda: RootedTree(5, (0,), {}, {}, 0, {}), _IDS),
    "RootedTree(..., 5, ...)": (lambda: RootedTree((0,), 5, {}, {}, 0, {}), _VERTICES),
    "RootedTree(..., [(0, 0)], ...)": (lambda: RootedTree((0,), (0,), [(0, 0)], {}, 0, {}),
                                       "flag maps must be mappings"),
    "RootedTree()": (lambda: RootedTree(), _IDS),
    # an unhashable label, flag id or key, also inside a tuple
    "RootedTree([[0]], ...)": (lambda: RootedTree([[0]], (0,), {}, {}, 0, {}), _IDS),
    "RootedTree(..., [([0],)], ...)": (lambda: RootedTree((0,), [([0],)], {}, {}, 0, {}), _VERTICES),
    "RootedTree(boundary {0: []})": (lambda: RootedTree((0,), (0,), {0: []}, {0: 0}, 0, {}), _VALUES_IDS),
    "RootedTree(involution {0: []})": (lambda: RootedTree((0,), (0,), {0: 0}, {0: []}, 0, {}), _VALUES_IDS),
    "RootedTree(input_labels {1: {}})": (lambda: RootedTree((0,), (0,), {0: 0}, {0: 0}, 0, {1: {}}), _VALUES_IDS),
    "RootedTree(root_tail [0])": (lambda: RootedTree((0,), (0,), {0: 0}, {0: 0}, [0], {}),
                                  "root tail must be a hashable id"),
    "from_nested(([[1]], ()))": (lambda: RootedTree.from_nested(([[1]], ())), "input labels must be hashable"),
    "RootedTree.from_json(inputs [[1]])": (lambda: RootedTree.from_json({"inputs": [[1]]}),
                                           "input labels must be hashable"),
    "RootedTree.corolla(5)": (lambda: RootedTree.corolla(5), "markings must be an iterable of hashable labels"),
    "RootedTree.corolla([[1]])": (lambda: RootedTree.corolla([[1]]), "markings must be an iterable of hashable labels"),
    "RootedTree.unit([])": (lambda: RootedTree.unit([]), "markings must be an iterable of hashable labels"),
    "forget_marking(t, [])": (lambda: forget_marking(_TREE, []), "marking must be a hashable label"),
    "forget_marking(t, (1, []))": (lambda: forget_marking(_TREE, (1, [])), "marking must be a hashable label"),
    "graft(t, t, {})": (lambda: graft(_TREE, _TREE, {}), "graft target flag must be a hashable id"),
    "contract_edge(t, [[0], [1]])": (lambda: contract_edge(_TREE, [[0], [1]]), "edge must be a pair of flags"),
    "permute_markings(t, {1: [], ...})": (lambda: permute_markings(_TREE, {1: [], 2: 2}),
                                          "pi values must be hashable labels"),
    "is_strongly_complemented(ct, [[1]])": (lambda: is_strongly_complemented(_CT, [[1]]),
                                            "selection must be an iterable of labels"),
    # torifications and expressions
    "DisjointUnion(5)": (lambda: DisjointUnion(5), "union parts must be expressions"),
    "Product(None)": (lambda: Product(None), "product factors must be expressions"),
    "Product([Torus(1), 1])": (lambda: Product([Torus(1), 1]), "product factors must be expressions"),
    "Complement(5, Torus(0))": (lambda: Complement(5, Torus(0)), "ambient and removed must be expressions"),
    "Complement(Torus(1), 'x')": (lambda: Complement(Torus(1), "x"), "ambient and removed must be expressions"),
    "Complement(.., 5)": (lambda: Complement(Torus(1), Torus(0), 5),
                          "assignment must be an iterable of ints or None"),
    "atoms(5)": (lambda: atoms(5), "expr must be an expression"),
    "eval_class(5)": (lambda: eval_class(5), "expr must be an expression"),
    "product_torification(5, ct)": (lambda: product_torification(5, _CT), _CTS),
    "product_torification(ct, 5)": (lambda: product_torification(_CT, 5), _CTS),
    "equiv_shadow(ct, None)": (lambda: equiv_shadow(_CT, None, "weak"), _CTS),
    "is_strongly_complemented(ct, 5)": (lambda: is_strongly_complemented(_CT, 5),
                                        "selection must be an iterable of labels"),
    # classes and series
    "MotClass(5)": (lambda: MotClass(5), "coefficients must be an iterable of ints"),
    "EGFSeries(5)": (lambda: EGFSeries(5), "coefficients must be an iterable of classes or ints"),
    # blueprint
    "SubsetIndex(5, 5)": (lambda: SubsetIndex(5, 5), "members must be an iterable of markings"),
    "is_simplex(5, 5)": (lambda: is_simplex(5, 5), "sigma must be SubsetIndexes"),
    "is_simplex([1], 5)": (lambda: is_simplex([1], 5), "sigma must be SubsetIndexes"),
    "Monomial(5, 5)": (lambda: Monomial(5, 5), "exponents must be (index, power) pairs"),
    "Monomial(5, [5])": (lambda: Monomial(5, [5]), "exponents must be (index, power) pairs"),
    "Monomial(5, [(idx,)])": (lambda: Monomial(5, [(_IDX,)]), "exponents must be (index, power) pairs"),
    "Monomial(5, [(idx, 1, 2)])": (lambda: Monomial(5, [(_IDX, 1, 2)]), "exponents must be (index, power) pairs"),
    "Monomial(5, [(1, 2)])": (lambda: Monomial(5, [(1, 2)]), "exponent keys must be SubsetIndexes"),
    "Monomial(5, {'a': 1})": (lambda: Monomial(5, {"a": 1}), "exponent keys must be SubsetIndexes"),
    "Monomial * 5": (lambda: _MONO * 5, "factors must be Monomials"),
    "BlueprintRel(5, [m])": (lambda: BlueprintRel(5, [_MONO]), "summands must be Monomials"),
    "BlueprintRel([m], [1])": (lambda: BlueprintRel([_MONO], [1]), "summands must be Monomials"),
    "CrossedElem(5, 5, perm)": (lambda: CrossedElem(5, 5, _PERM), "summands must be Monomials"),
    "CrossedElem(5, ['x'], perm)": (lambda: CrossedElem(5, ["x"], _PERM), "summands must be Monomials"),
    "crossed_mul(5, x)": (lambda: crossed_mul(5, _CROSSED), "factors must be CrossedElems"),
    "crossed_mul(x, None)": (lambda: crossed_mul(_CROSSED, None), "factors must be CrossedElems"),
    "crossed_relations(5, [])": (lambda: crossed_relations(5, []), _RELS),
    "crossed_relations([], 5)": (lambda: crossed_relations([], 5), "group must be an iterable of permutations"),
    "perm_action(perm, 5)": (lambda: perm_action(_PERM, 5), "mono must be a Monomial"),
    "perm_relation(perm, m)": (lambda: perm_relation(_PERM, _MONO), _RELS),
    "relation_triples(5)": (lambda: relation_triples(5), _RELS),
    "clear_denominators(m)": (lambda: clear_denominators(_MONO), _RELS),
    # JSON readers
    "MotClass.from_json([])": (lambda: MotClass.from_json([]), _OBJECT),
    "MotClass.from_json(coeffs 5)": (lambda: MotClass.from_json({"basis": "T", "coeffs": 5}),
                                     "coeffs must be decimal strings"),
    "MotClass.from_json(coeffs [None])": (lambda: MotClass.from_json({"basis": "T", "coeffs": [None]}),
                                          "coeffs must be decimal strings"),
    "RootedTree.from_json(5)": (lambda: RootedTree.from_json(5), _OBJECT),
    "RootedTree.from_json('[]')": (lambda: RootedTree.from_json("[]"), _OBJECT),
    "RootedTree.from_json(child 5)": (lambda: RootedTree.from_json({"inputs": [1], "children": [5]}), _OBJECT),
    "RootedTree.from_json(inputs 5)": (lambda: RootedTree.from_json({"inputs": 5}), "inputs must be a list"),
    "RootedTree.from_json(children 5)": (lambda: RootedTree.from_json({"inputs": [1], "children": 5}),
                                         "children must be a list"),
    "expr_from_json(5)": (lambda: expr_from_json(5), _OBJECT),
    "expr_from_json(parts 5)": (lambda: expr_from_json({"op": "union", "parts": 5}), "parts must be a list"),
    "expr_from_json(factors 5)": (lambda: expr_from_json({"op": "product", "factors": 5}), "factors must be a list"),
    "expr_from_json(part 5)": (lambda: expr_from_json({"op": "union", "parts": [5]}), _OBJECT),
}


@pytest.mark.parametrize("call,message", list(_KINDS.values()), ids=list(_KINDS))
def test_kind_table(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def _forged(value, slot, forged):
    """The pickle of value with one slot replaced by forged, as a damaged file would hold it."""
    object.__setattr__(value, slot, forged)
    return pickle.dumps(value)


@pytest.mark.parametrize("build,slot,message", [
    (lambda: Monomial(5, [(_IDX, 1)]), "exps", "exponents must be (index, power) pairs"),
    (lambda: DisjointUnion([Torus(0)]), "parts", "union parts must be expressions"),
    (lambda: RootedTree.corolla((1, 2)), "_form", _FORMS),
], ids=["Monomial", "DisjointUnion", "RootedTree"])
def test_a_damaged_pickle_reports_the_kind(build, slot, message):
    data = _forged(build(), slot, 5)
    with pytest.raises(TypeError) as info:
        pickle.loads(data)
    assert str(info.value) == message


# -- every other error path ---------------------------------------------------


def _patched(module, name, value, call):
    """call() with module.name replaced by value: how an invariant guard is reached."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, value)
        return call()


def _cli(*argv):
    """Exit status and stderr of one CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(list(argv), stdout=io.BytesIO())
    return code, err.getvalue()


_TWO = RootedTree.from_nested(((1,), (((2, 3), ()),)))  # flag 2 is the root's end of its edge
_FLAGS = (0, 1, 2)
_STAR = {0: 0, 1: 0, 2: 0}  # every flag on vertex 0
_ZERO = lambda *args: MotClass.zero()  # noqa: E731 -- a wrong class for any guard

# each path that no other test reaches, or reaches without stating its message: the call and its exception, or
# the value it returns
_PATHS = {
    # flag data
    "RootedTree(boundary {})": (lambda: RootedTree((0,), (0,), {}, {0: 0}, 0, {}),
                                ValueError("boundary and involution must be defined exactly on the flags")),
    "RootedTree(involution 1 -> 2 -> 2)": (lambda: RootedTree(_FLAGS, (0,), _STAR, {0: 0, 1: 2, 2: 2}, 0, {}),
                                           ValueError("involution must square to the identity")),
    "RootedTree(boundary 0 -> 9)": (lambda: RootedTree((0,), (0,), {0: 9}, {0: 0}, 0, {}),
                                    ValueError("boundary image must lie in the vertex set")),
    "RootedTree(unlabeled tail)": (lambda: RootedTree((0, 1), (0,), {0: 0, 1: 0}, {0: 0, 1: 1}, 0, {}),
                                   ValueError("input labels must biject onto the non-root tails")),
    # two edges between vertices a and b close a cycle, and c is cut off
    "RootedTree(cycle)": (lambda: RootedTree((0, 1, 2, 3, 4), "abc", {0: "a", 1: "a", 2: "b", 3: "b", 4: "a"},
                                             {0: 0, 1: 2, 2: 1, 3: 4, 4: 3}, 0, {}),
                          ValueError("flag data is not a tree (disconnected)")),
    "RootedTree(root tail on an edge)": (lambda: RootedTree((0, 1), (0,), {0: 0, 1: 0}, {0: 1, 1: 0}, 0, {}),
                                         ValueError("root tail must be an involution-fixed flag")),
    "RootedTree(two vertices, no edge)": (lambda: RootedTree((0,), (0, 1), {0: 0}, {0: 0}, 0, {}),
                                          ValueError("flag data is not a tree (vertex/edge count)")),
    # tree operations
    "graft(t, t, 99)": (lambda: graft(_TREE, _TREE, 99),
                        ValueError("graft target flag is not a flag of the host tree")),
    "graft(t, t, root tail)": (lambda: graft(_TREE, _TREE, 0), ValueError("cannot graft into the root tail")),
    "graft(t, two-vertex tree, edge flag)": (lambda: graft(_TREE, _TWO, 2),
                                             ValueError("graft target must be a tail, not an edge flag")),
    "graft(t, t, 1)": (lambda: graft(_TREE, _TREE, 1),
                       ValueError("marking labels collide; relabel before grafting")),
    "contract_edge(t, two tails)": (lambda: contract_edge(_TREE, (1, 2)),
                                    ValueError("flags are not matched by the involution (tails cannot be contracted)")),
    "contract_edge(t, (1, 1))": (lambda: contract_edge(_TREE, (1, 1)),
                                 ValueError("an edge consists of two distinct flags")),
    "contract_edge(t, (98, 99))": (lambda: contract_edge(_TREE, (98, 99)),
                                   ValueError("edge flags do not belong to the tree")),
    "graft_all(t, [t, t])": (lambda: graft_all(_TREE, [_TREE, _TREE]), ValueError("argument marking labels collide")),
    "permute_markings(t, {1: 1})": (lambda: permute_markings(_TREE, {1: 1}),
                                    ValueError("permutation domain does not match the marking set")),
    "permute_markings(t, {1: 3, 2: 3})": (lambda: permute_markings(_TREE, {1: 3, 2: 3}),
                                          ValueError("relabeling is not injective")),
    "forget_marking(t, 9)": (lambda: forget_marking(_TREE, 9), ValueError("unknown marking 9")),
    "tree_class(unit, 1)": (lambda: tree_class(RootedTree.unit(), 1), ValueError("unstable tree")),
    "torify_tree_curve(unit)": (lambda: torify_tree_curve(RootedTree.unit()), ValueError("unstable tree")),
    "mother of the root": (lambda: _TREE.mother(_TREE.root_vertex), None),
    # blueprint
    "Monomial(6, [(index of 5, 1)])": (lambda: Monomial(6, [(_IDX, 1)]),
                                       ValueError("exponent keys must be indices for the same n")),
    "Monomial(5) * Monomial(6)": (lambda: _MONO * unit_monomial(6),
                                  ValueError("cannot multiply monomials over different index sets")),
    "CrossedElem(6, [Monomial(5)], perm)": (lambda: CrossedElem(6, [_MONO], (1, 2, 3, 4, 5, 6)),
                                            ValueError("summands must live over the same index set")),
    "embed_perm((1, 2, 3), 2)": (lambda: embed_perm((1, 2, 3), 2), ValueError("cannot embed into a smaller set")),
    "CrossedElem(5, [], 5)": (lambda: CrossedElem(5, [], 5), ValueError("perm must be a permutation tuple of 1..n")),
    "crossed_mul(n 5, n 6)": (lambda: crossed_mul(_CROSSED, crossed_identity(6)),
                              ValueError("incompatible crossed-product carriers")),
    "BlueprintRel([], [m])": (lambda: BlueprintRel([], [_MONO]), ValueError("both sides must be nonempty")),
    # classes
    "MotClass.from_coeffs(basis 'Q')": (lambda: MotClass.from_coeffs((1,), "Q"),
                                        ValueError("basis must be 'T' or 'L'")),
    "MotClass + 'x'": (lambda: MotClass.one() + "x", TypeError("cannot combine MotClass with 'x'")),
    "Monomial.__eq__(5)": (lambda: _MONO.__eq__(5), NotImplemented),
    "poincare of 0": (lambda: MotClass.zero().poincare(), ()),
    # series and the kernel's read-offs, which check themselves
    "EGFSeries([])": (lambda: EGFSeries([]), ValueError("series needs at least the t coefficient")),
    "EGFSeries([2])": (lambda: EGFSeries([2]), ValueError("series must begin t + ...")),
    "_unpack of an odd sum": (lambda: genseries._unpack(1, 0, 1, 1),
                              AssertionError("the runs at X and -X do not split into nonnegative even and odd parts")),
    "_interpolate([0, 1, 4])": (
        lambda: genseries._interpolate([0, 1, 4]),
        AssertionError("the values exceed the degree: their last difference is nonzero")),
    # torifications
    "Complement(.., [0, 0])": (lambda: Complement(Torus(1), Torus(0), [0, 0]),
                               ValueError("assignment must cover every atom of the removed expression")),
    "expr_from_json(op 'cube')": (lambda: expr_from_json({"op": "cube"}), ValueError("unknown expression op 'cube'")),
    "ct.piece('nope')": (lambda: _CT.piece("nope"), KeyError("nope")),
    "Torus.__eq__(5)": (lambda: Torus(1).__eq__(5), NotImplemented),
    "ConstructibleTorification(twice 'a')": (lambda: ConstructibleTorification([("a", Torus(0)), ("a", Torus(1))]),
                                             ValueError("piece labels must be distinct")),
    "is_strongly_complemented(ct, ['nope'])": (lambda: is_strongly_complemented(_CT, ["nope"]),
                                               ValueError("selection names unknown piece 'nope'")),
    "blowup_decomposition(ct, part of a piece)": (lambda: blowup_decomposition(_CT, {"cell0:t0": Torus(0)}, 2),
                                                  ValueError("center is not strongly complemented")),
    "equiv_shadow(ct, ct, 'medium')": (lambda: equiv_shadow(_CT, _CT, "medium"),
                                       ValueError("level must be 'strong' or 'weak'")),
    # the CLI
    "crossed --g 2 --n 4": (lambda: _cli("crossed", "--g", "2", "--n", "4"), (3, "error: need n >= 2g + 1 markings\n")),
    "emit(.., 'xml')": (lambda: cli.emit({}, "xml"), ValueError("unknown format 'xml'")),
    "emit of an object": (lambda: cli.emit({"a": object()}, "json"), TypeError("cannot render 'object' as JSON")),
    # invariant guards, reached through a wrong class
    "constructible_open_stratum, drifted": (
        lambda: _patched(torif, "open_stratum_class", _ZERO, lambda: constructible_open_stratum(1, 4)),
        AssertionError("stratum expression class drifted from the product formula")),
    "strata, total disagrees": (
        lambda: _patched(genseries, "tdn_class", _ZERO, lambda: _cli("strata", "--d", "1", "--n", "3")),
        (4, "internal error: stratum total disagrees with the class recursion\n")),
}


@pytest.mark.parametrize("call,want", list(_PATHS.values()), ids=list(_PATHS))
def test_error_path_table(call, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            call()
        assert type(info.value) is type(want) and str(info.value) == str(want)
    else:
        assert call() == want


# -- every export, called with junk -------------------------------------------

_EXPORTS = sorted(name for name, value in vars(f1kit).items()
                  if not name.startswith("_") and (inspect.isroutine(value) or inspect.isclass(value)))
# Python's own phrasing for a wrong kind; f1kit states its own message instead
_PYTHON_PHRASES = ("is not iterable", "has no attribute", "not subscriptable", "cannot unpack", "has no len()",
                   "indices must be", "unhashable type", "invalid literal")
_VALUES = [_X, _TREE, RootedTree.from_nested(((1,), (((2, 3), ()),))), Torus(1), Complement(Torus(2), Torus(1)), _CT,
           _REL, _IDX, _MONO, _CROSSED, EGFSeries([1, 2]), StratumDescriptor(_TREE, 1)]
# only the ints -1, 0 and 5, so that no junk asks for a heavy computation
_JUNK = st.recursive(
    st.none() | st.text(max_size=2) | st.floats() | st.booleans() | st.sampled_from([-1, 0, 5])
    | st.sampled_from(_VALUES),
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.dictionaries(st.text(max_size=1), inner, max_size=2),
    max_leaves=5,
)


def _arity(name):
    params = inspect.signature(getattr(f1kit, name)).parameters.values()
    return len([p for p in params if p.kind == p.POSITIONAL_OR_KEYWORD and not p.name.startswith("_")])


def test_every_export_is_fuzzed():
    assert len(_EXPORTS) == 56


@pytest.mark.parametrize("name", _EXPORTS)
@settings(max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_junk_raises_only_f1kit_messages(name, data):
    args = [data.draw(_JUNK, label="arg %d" % i) for i in range(_arity(name))]
    try:
        getattr(f1kit, name)(*args)
    except (TypeError, ValueError) as exc:
        assert not any(phrase in str(exc) for phrase in _PYTHON_PHRASES), (name, args, exc)


def _plain(value):
    # StratumDescriptor compares by identity: compare its parts
    if isinstance(value, list):
        return [_plain(x) for x in value]
    if isinstance(value, StratumDescriptor):
        return value.tree, value.d
    return value


@pytest.mark.parametrize("name,call,floor", [pytest.param(n, c, f, id=n) for n, c, f, _ in _ENTRIES])
def test_floor_is_accepted_and_a_bool_is_its_int(name, call, floor):
    call(floor)
    for flag in (False, True):
        try:
            want = call(int(flag))
        except ValueError as exc:
            with pytest.raises(ValueError, match="^%s$" % re.escape(str(exc))):
                call(flag)
        else:
            assert _plain(call(flag)) == _plain(want)


# several bad arguments at once: the first check, in argument order unless
# noted, names the error
_FIRST = {
    "solve_tdn_ode(0, 0)": (lambda: solve_tdn_ode(0, 0), "d must be a positive int"),
    "solve_point_count_ode(0, -1, 0)": (lambda: solve_point_count_ode(0, -1, 0), "d must be a positive int"),
    "solve_point_count_ode(1, -1, 0)": (lambda: solve_point_count_ode(1, -1, 0), "m must be a nonnegative int"),
    "open_stratum_class(0, 1)": (lambda: open_stratum_class(0, 1), "d must be a positive int"),
    "affine_minus_points(0, -1)": (lambda: affine_minus_points(0, -1), "d must be a positive int"),
    "constructible_open_stratum(0, 1)": (lambda: constructible_open_stratum(0, 1), "d must be a positive int"),
    "strata_sum(0, 1)": (lambda: strata_sum(0, 1), "d must be a positive int"),
    "strata_table(0, 1), n first": (lambda: strata_table(0, 1), "n must be an int >= 2"),
    "StratumDescriptor, tree first": (lambda: StratumDescriptor(RootedTree.corolla((1,)), 0),
                                      "stratum trees must be stable"),
    "Monomial(3, e=-1, f=-1)": (lambda: Monomial(3, [(_IDX, -1)], -1), "n must be an int >= 4"),
    "Monomial(5, e=-1, f=-1)": (lambda: Monomial(5, [(_IDX, -1)], -1), "exponents must be nonnegative ints"),
    "graft_all arity": (lambda: graft_all(_TREE, [_TREE]), "arity mismatch: tree takes 2 inputs, got 1"),
    "compose arity": (lambda: compose(_TREE, []), "arity mismatch: tree takes 2 inputs, got 0"),
}


@pytest.mark.parametrize("call,message", list(_FIRST.values()), ids=list(_FIRST))
def test_first_failing_check_names_the_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestBoolsBecomeInts:
    """A bool argument is stored, keyed and printed as its plain int."""

    def test_torus_dimension(self):
        t = Torus(True)
        assert json.dumps(t.to_json()) == '{"op": "torus", "dim": 1}'
        assert [type(a) for a in atoms(t)] == [int]

    def test_monomial_denominator(self):
        assert json.dumps(Monomial(5, (), True).to_json()) == '{"exps": [], "fpow": 1}'

    def test_stratum_descriptor_d(self):
        assert type(StratumDescriptor(_TREE, True).d) is int

    @pytest.mark.parametrize(
        "build,text",
        [
            (lambda: MotClass((True,)), "MotClass([1])"),
            (lambda: MotClass() + True, "MotClass([1])"),
            (lambda: True - MotClass(), "MotClass([1])"),
            (lambda: MotClass((0, 1)) * True, "MotClass([0, 1])"),
        ],
        ids=["MotClass((True,))", "+ True", "True -", "* True"],
    )
    def test_class_coefficients(self, build, text):
        value = build()
        assert repr(value) == text
        assert MotClass.from_json(value.to_json()) == value

    def test_complement_assignment(self):
        c = Complement(Torus(1), Torus(0), [True])
        assert json.dumps(c.to_json()["assignment"]) == "[1]"
        assert c == Complement(Torus(1), Torus(0), [1])


def test_an_index_outside_the_range_keeps_its_answer():
    assert [_X.coefficient(k) for k in (-1, 0, 1, 2, True)] == [0, 1, 1, 0, 1]
    series = EGFSeries([MotClass.one(), _X])
    assert series.coeff(True) == series.coeff(1) == MotClass.one()
    for n in (0, 3):
        with pytest.raises(IndexError, match="outside truncation order 2"):
            series.coeff(n)


def _sources():
    return {path.name: path.read_text() for path in Path(f1kit.__file__).parent.glob("*.py")}


def test_integer_rule_is_stated_once():
    """No module restates the rule inline: each integer argument goes through _check_int."""
    inline = [
        # ... or x < low
        re.compile(r"isinstance\(\s*(\w+)\s*,\s*int\s*\)\s*or\s+(\w+)\s*<"),
        # ... or not low <= x <= high, or ... and low <= x <= high; a bound is a literal or another argument,
        # as in 1 <= m <= n
        re.compile(r"isinstance\(\s*(\w+)\s*,\s*int\s*\)\s*(?:or\s+not|and)\s+[-\w.]+\s*<=?\s*(\w+)\s*<=?\s*[-\w.]+"),
    ]
    # the rule's own message raised by hand, as a bound checked after _check_int would be (if g > 5: raise ...)
    by_hand = re.compile(r'raise ValueError\(\s*"\w+ must be (?:an int|a positive int|a nonnegative int)')
    sources = _sources()
    found = [
        "%s:%d: %s" % (name, text.count("\n", 0, m.start()) + 1, m.group(0))
        for name, text in sorted(sources.items())
        for pattern in inline + [by_hand]
        for m in pattern.finditer(text)
        if pattern is by_hand or m.group(1) == m.group(2)
    ]
    assert found == []
    assert sum(text.count("def _check_int(") for text in sources.values()) == 1


# the functions that raise their own TypeError, each for a reason the kind rule cannot state
_OWN_TYPE_ERRORS = {
    # the one statement of the rule
    "motive._check_kind",
    # an operand of +, - or * that is not a class or an int; the operator message names the operand
    "motive._coerce",
    # a coefficient that is not an int; its message names the bad value
    "motive.MotClass.__init__",
    # a document value the CLI's JSON writer cannot render: an internal error, never a caller's argument
    "cli._render",
}


def _type_error_raisers(name, text):
    """Qualified names of the functions of one module that raise TypeError(...) themselves."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            elif (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                  and getattr(child.exc.func, "id", None) == "TypeError"):
                out.append(".".join([name[:-3]] + scope))
            else:
                visit(child, scope)

    visit(ast.parse(text), [])
    return out


def test_kind_rule_is_stated_once():
    """Every wrong kind is refused through _check_kind; only the listed functions raise a TypeError of their own."""
    sources = _sources()
    raisers = [q for name, text in sorted(sources.items()) for q in _type_error_raisers(name, text)]
    assert sorted(set(raisers)) == sorted(_OWN_TYPE_ERRORS)
    assert raisers.count("motive._check_kind") == 1
    assert sum(text.count("def _check_kind(") for text in sources.values()) == 1


def _raised_literals(name, text):
    """(line, literal) of each raise X("literal...") of one module, the literal cut at its first %."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            first = node.exc.args[0]
            while isinstance(first, ast.BinOp):  # "..." % args, "..." + more
                first = first.left
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                out.append(("%s:%d" % (name, node.lineno), first.value.split("%")[0]))
    return out


def test_every_raised_message_is_pinned():
    """Each message a raise in src states, up to its first %, appears in some file under tests/."""
    tests = "".join(path.read_text() for path in Path(__file__).parent.rglob("*.py"))
    literals = [row for name, text in sorted(_sources().items()) for row in _raised_literals(name, text)]
    assert len(literals) > 50  # the scan sees the raises
    assert [where for where, literal in literals if literal not in tests] == []
