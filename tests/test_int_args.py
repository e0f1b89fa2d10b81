"""One rule for integer arguments.

Every public entry with an integer argument refuses a non-int and a value
below the argument's floor with one ValueError, and a bool counts as its int:
what an entry stores, keys or prints is a plain int.
"""

import json
import re
from pathlib import Path

import pytest

import f1kit
from f1kit.blueprint import (
    CrossedElem,
    Monomial,
    SubsetIndex,
    centralizer_subgroup,
    count_max_simplexes,
    crossed_identity,
    embed_perm,
    full_product_monomial,
    index_set,
    is_simplex,
    localize_relation,
    plucker_relations,
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
    Torus,
    affine_minus_points,
    affine_space_expr,
    atoms,
    blowup_decomposition,
    constructible_open_stratum,
    torify_proj_space,
)
from f1kit.treeop import (
    RootedTree,
    StratumDescriptor,
    compose,
    enumerate_stable_trees,
    graft_all,
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


@pytest.mark.parametrize("call,value,message", _ROWS)
def test_message_table(call, value, message):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


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


def test_integer_rule_is_stated_once():
    """No module restates the rule inline: each integer argument goes through _check_int."""
    inline = [
        # ... or x < low
        re.compile(r"isinstance\(\s*(\w+)\s*,\s*int\s*\)\s*or\s+(\w+)\s*<"),
        # ... or not low <= x <= high, for literal bounds (a member bounded by another argument is not one)
        re.compile(r"isinstance\(\s*(\w+)\s*,\s*int\s*\)\s*or\s+not\s+-?\d+\s*<=?\s*(\w+)\s*<=?\s*-?\d+\b"),
    ]
    sources = {path.name: path.read_text() for path in Path(f1kit.__file__).parent.glob("*.py")}
    found = [
        "%s:%d: %s" % (name, text.count("\n", 0, m.start()) + 1, m.group(0))
        for name, text in sorted(sources.items())
        for pattern in inline
        for m in pattern.finditer(text)
        if m.group(1) == m.group(2)
    ]
    assert found == []
    assert sum(text.count("def _check_int(") for text in sources.values()) == 1
