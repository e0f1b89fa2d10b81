import hashlib
import json
import random
from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

from f1kit.genseries import open_stratum_class
from f1kit.motive import MotClass, blowup_class, proj_class
from f1kit.torif import (
    Complement,
    ConstructibleTorification,
    DisjointUnion,
    Product,
    Torus,
    affine_minus_points,
    atoms,
    blowup_decomposition,
    constructible_open_stratum,
    dimension,
    equiv_shadow,
    eval_class,
    expr_from_json,
    is_strongly_complemented,
    product_torification,
    selection_class,
    torify_proj_space,
    torify_tree_curve,
    validate,
)
from f1kit.treeop import RootedTree


@st.composite
def exprs(draw, depth=0, complements=False):
    """Expressions to depth 3; with complements=True also nested complements,
    auto-assigned or with explicit assignments that may hold None, targets
    out of range and targets of too small a dimension."""
    if depth >= 3:
        return Torus(draw(st.integers(min_value=0, max_value=3)))
    kinds = ["torus", "union", "product"] + (["complement"] if complements else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "torus":
        return Torus(draw(st.integers(min_value=0, max_value=3)))
    if kind == "complement":
        ambient = draw(exprs(depth=depth + 1, complements=True))
        removed = draw(exprs(depth=depth + 1, complements=True))
        if draw(st.booleans()):
            return Complement(ambient, removed)
        n_amb = len(oracle_atoms(ambient))
        target = st.one_of(st.none(), st.integers(min_value=-1, max_value=n_amb + 1))
        n_rem = len(oracle_atoms(removed))
        return Complement(ambient, removed, draw(st.lists(target, min_size=n_rem, max_size=n_rem)))
    parts = draw(st.lists(exprs(depth=depth + 1, complements=complements), min_size=1, max_size=3))
    return DisjointUnion(parts) if kind == "union" else Product(parts)


# -- the recursive walks that node data replaced, kept as oracles --------------


def oracle_atoms(expr):
    """Dimensions of the constituent cells, in a fixed traversal order."""
    if isinstance(expr, Torus):
        return (expr.dim,)
    if isinstance(expr, DisjointUnion):
        out = ()
        for p in expr.parts:
            out += oracle_atoms(p)
        return out
    if isinstance(expr, Product):
        dims = [oracle_atoms(f) for f in expr.factors]
        return tuple(sum(combo) for combo in iproduct(*dims))
    if isinstance(expr, Complement):
        return oracle_atoms(expr.ambient)
    raise TypeError("not an expression: %r" % (expr,))


def oracle_validate(expr, _path="$"):
    """Check the strict-dimension complement rule recursively.

    Returns (ok, diagnostics); never raises.
    """
    problems = []
    if isinstance(expr, Torus):
        pass
    elif isinstance(expr, DisjointUnion):
        for i, p in enumerate(expr.parts):
            problems.extend(oracle_validate(p, "%s.parts[%d]" % (_path, i))[1])
    elif isinstance(expr, Product):
        for i, f in enumerate(expr.factors):
            problems.extend(oracle_validate(f, "%s.factors[%d]" % (_path, i))[1])
    elif isinstance(expr, Complement):
        amb = oracle_atoms(expr.ambient)
        rem = oracle_atoms(expr.removed)
        for i, dim in enumerate(rem):
            j = expr.assignment[i]
            if j is None or not (0 <= j < len(amb)):
                problems.append("%s: removed atom %d (dim %d) has no ambient atom" % (_path, i, dim))
            elif amb[j] <= dim:
                problems.append(
                    "%s: removed atom %d (dim %d) assigned to ambient atom %d (dim %d), not strictly larger"
                    % (_path, i, dim, j, amb[j])
                )
        problems.extend(oracle_validate(expr.ambient, _path + ".ambient")[1])
        problems.extend(oracle_validate(expr.removed, _path + ".removed")[1])
    else:
        problems.append("%s: not an expression" % _path)
    return (not problems, problems)


def oracle_eval(expr):
    if isinstance(expr, Torus):
        return MotClass.torus(expr.dim) if expr.dim else MotClass.one()
    if isinstance(expr, DisjointUnion):
        total = MotClass.zero()
        for p in expr.parts:
            total = total + oracle_eval(p)
        return total
    if isinstance(expr, Product):
        total = MotClass.one()
        for f in expr.factors:
            total = total * oracle_eval(f)
        return total
    return oracle_eval(expr.ambient) - oracle_eval(expr.removed)


class TestOracles:
    @given(exprs(complements=True))
    def test_node_data_match_the_walks(self, e):
        assert atoms(e) == oracle_atoms(e)
        ok, problems = oracle_validate(e)
        assert validate(e) == (ok, problems)
        if ok:
            assert eval_class(e) == oracle_eval(e)
        else:
            with pytest.raises(ValueError) as err:
                eval_class(e)
            assert str(err.value) == "invalid complement assignment: " + "; ".join(problems)

    def test_not_an_expression(self):
        assert validate(3) == oracle_validate(3) == (False, ["$: not an expression"])
        with pytest.raises(TypeError, match="^expr must be an expression$"):
            atoms(3)
        with pytest.raises(TypeError, match="^expr must be an expression$"):
            eval_class(3)


class TestEval:
    def test_point(self):
        assert eval_class(Torus(0)) == MotClass.one()

    def test_punctured_torus(self):
        assert eval_class(Complement(Torus(1), Torus(0))) == MotClass((-1, 1))

    def test_product_of_lines(self):
        line = DisjointUnion([Torus(0), Torus(0), Torus(1)])
        assert eval_class(Product([line, line])) == MotClass((2, 1)) ** 2

    @given(exprs(), exprs())
    def test_union_additive(self, a, b):
        assert eval_class(DisjointUnion([a, b])) == eval_class(a) + eval_class(b)

    @given(exprs(), exprs())
    def test_product_multiplicative(self, a, b):
        assert eval_class(Product([a, b])) == eval_class(a) * eval_class(b)

    def test_invalid_complement_raises(self):
        bad = Complement(Torus(1), Torus(1))
        with pytest.raises(ValueError):
            eval_class(bad)


class TestValidate:
    def test_point_out_of_torus(self):
        ok, problems = validate(Complement(Torus(1), Torus(0)))
        assert ok and not problems

    def test_equal_dimension_rejected(self):
        ok, problems = validate(Complement(Torus(1), Torus(1)))
        assert not ok and problems

    def test_diagonal_in_square(self):
        ok, _ = validate(Complement(Product([Torus(1), Torus(1)]), Torus(1)))
        assert ok

    def test_non_int_assignment_rejected(self):
        obj = {"op": "complement", "ambient": {"op": "torus", "dim": 1},
               "removed": {"op": "torus", "dim": 0}, "assignment": ["x"]}
        with pytest.raises(ValueError):
            expr_from_json(obj)
        with pytest.raises(ValueError):
            Complement(Torus(1), Torus(0), [0.0])

    @pytest.mark.parametrize("target", [-1, 5])
    def test_out_of_range_assignment_is_reported(self, target):
        ok, problems = validate(Complement(Torus(1), Torus(0), [target]))
        assert not ok
        assert problems == ["$: removed atom 0 (dim 0) has no ambient atom"]

    def test_nested_problem_is_located(self):
        bad = DisjointUnion([Torus(2), Complement(Torus(1), Torus(2))])
        ok, problems = validate(bad)
        assert not ok
        assert "parts[1]" in problems[0]


class TestAtoms:
    def test_product_atoms_add(self):
        e = Product([DisjointUnion([Torus(0), Torus(1)]), Torus(2)])
        assert sorted(atoms(e)) == [2, 3]
        assert dimension(e) == 3

    def test_complement_exposes_ambient(self):
        e = Complement(Torus(3), Torus(1))
        assert atoms(e) == (3,)

    def test_empty_product_is_a_point(self):
        assert atoms(Product(())) == (0,)
        assert eval_class(Product(())) == MotClass.one()

    def test_json_round_trip(self):
        e = Complement(Product([Torus(1), Torus(1)]), DisjointUnion([Torus(0), Torus(1)]))
        assert expr_from_json(e.to_json()) == e


class TestProjSpace:
    @pytest.mark.parametrize("d", range(6))
    def test_class(self, d):
        assert torify_proj_space(d).total_class == proj_class(d)

    def test_piece_counts(self):
        assert len(torify_proj_space(0).pieces) == 1
        assert len(torify_proj_space(1).pieces) == 3
        assert len(torify_proj_space(2).pieces) == 7

    def test_line_pieces(self):
        dims = torify_proj_space(1).atom_dims()
        assert dims == (0, 0, 1)

    def test_cached_total_matches_recomputation(self):
        ct = torify_proj_space(3)
        total = MotClass.zero()
        for _, expr in ct.pieces:
            total = total + eval_class(expr)
        assert total == ct.total_class
        assert ct.is_f1_constructible()


class TestTreeCurve:
    def test_single_component(self):
        ct = torify_tree_curve(RootedTree.corolla((1, 2)))
        assert ct.total_class == MotClass((2, 1))
        assert ct.atom_dims() == (0, 0, 1)

    def test_two_components(self):
        t = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        ct = torify_tree_curve(t)
        assert ct.total_class == MotClass((3, 2))
        assert ct.atom_dims() == (0, 0, 0, 1, 1)

    def test_five_components(self):
        t = RootedTree.from_nested(
            ((1, 2), (((3, 4), ()), ((5, 6), ()), ((7, 8), ()), ((9, 10), ())))
        )
        assert torify_tree_curve(t).total_class == MotClass((6, 5))

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            torify_tree_curve(RootedTree.unit())


class TestOpenStratum:
    def test_d1_n3_exact_expression(self):
        ct = constructible_open_stratum(1, 3)
        assert len(ct.pieces) == 1
        assert ct.pieces[0][1] == Complement(Torus(1), Torus(0))
        assert ct.total_class == MotClass((-1, 1))

    def test_d1_n4(self):
        assert constructible_open_stratum(1, 4).total_class == MotClass((2, -3, 1))

    @pytest.mark.parametrize("d", [1, 2])
    def test_n2_empty_product(self, d):
        ct = constructible_open_stratum(d, 2)
        assert ct.pieces[0][1] == Product(())
        assert ct.total_class == MotClass.one()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_class_oracle(self, d):
        for n in range(2, 7):
            assert constructible_open_stratum(d, n).total_class == open_stratum_class(d, n)

    @pytest.mark.parametrize("d,n", [(1, n) for n in range(4, 10)] + [(2, n) for n in range(4, 8)])
    def test_one_chain_per_block_count(self, d, n):
        removed = constructible_open_stratum(d, n).pieces[0][1].removed
        assert len({id(chain) for chain in removed.parts}) == n - 3

    @pytest.mark.parametrize(
        "d,n,digest",
        [
            (1, 2, "69e0fb9618719b3c43122a22a56a3f39459477c43878be389343aa6ba31e37ca"),
            (1, 3, "d4be02f7c3a3b62a5c16d621d2f26201c447c66502feca81d359a9131a1e758e"),
            (1, 4, "eeb65b398d229a51d84af1c3d1c7c18c513cd8114e3eb2154d64dcb46f5b1838"),
            (1, 5, "8ce4e7a58e8b3144cdd748ec9b0d0efb5a167e51afe697ed03f2066a9996b508"),
            (1, 6, "aed47e30ee6d847fae94e448c2995620560badf8b08848985ffa63e64ebf4415"),
            (1, 7, "1b2e6d43af4d5fce3de4baded22df74f4c5661060c8cab3cade3c02c7f4bfd89"),
            (1, 8, "889bbec37afc52cb161a405b9f6f3990860c4e341ffd75ecc80d82b30042ebfd"),
            (1, 9, "e97a59937f04e3939c0cf969b7ec403bbf0bdc3976df0abe4a6f381ec553c59d"),
            (2, 2, "69e0fb9618719b3c43122a22a56a3f39459477c43878be389343aa6ba31e37ca"),
            (2, 3, "9365a6cfca0823281765e10974b24f7cf5c9d33eecafd6d022b15c38df617281"),
            (2, 4, "17456a12bd4eb67f0878e6fa30838788871da9f82b377375ecb85c2f291994e9"),
            (2, 5, "c970335562624874e7b13d9553271af4c6c23f5ef9c5bc5757bfaf48f75b47a0"),
            (2, 6, "050fbffe51e9888e8ec9d6b1085fa3a4e5b9f3f0328e383dff5947be3a7d76d7"),
            (2, 7, "ce3be9e4435be245a16a39258a2f6aa7783fa7eee57c9ba2972f260f20792394"),
            (3, 2, "69e0fb9618719b3c43122a22a56a3f39459477c43878be389343aa6ba31e37ca"),
            (3, 3, "e545d481fc3e4dc4750d2eba04b808d6d8fd0061c37c522d198e8830dd316087"),
            (3, 4, "c5aee539a08a5a691434b5d32c8a7d84c959583ab63744371be52c5969baffef"),
            (3, 5, "42d794c7e315fc7d620504e9840c81e88dd2e45da1b114ee79a74848ca9edaf0"),
            (3, 6, "8b91885b5be084c10ad18f8625c58a9cf60128a7b7670fd7c6acafde2e88e373"),
            (3, 7, "3fc47c22567fb5b6b66d9abca13137ebf7df61064337eca9b82ecafb0ff5369a"),
        ],
    )
    def test_json_digest(self, d, n, digest):
        out = json.dumps(constructible_open_stratum(d, n).to_json())
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_punctured_affine_classes(self):
        for d in (1, 2, 3):
            for r in range(5):
                want = MotClass.lefschetz(d) - r
                assert eval_class(affine_minus_points(d, r)) == want


class TestComplemented:
    def test_fixed_point_of_line(self):
        ct = torify_proj_space(1)
        assert is_strongly_complemented(ct, ["cell0:t0"])

    def test_interior_point_of_torus_piece(self):
        ct = torify_proj_space(1)
        assert not is_strongly_complemented(ct, {"cell1:t1": Torus(0)})

    def test_diagonal_of_square(self):
        p1 = torify_proj_space(1)
        sq = product_torification(p1, p1)
        diagonal = {
            "cell0:t0xcell0:t0": None,
            "cell1:t0xcell1:t0": None,
            "cell1:t1xcell1:t1": Torus(1),
        }
        assert not is_strongly_complemented(sq, diagonal)
        assert selection_class(sq, diagonal) == MotClass((2, 1))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            is_strongly_complemented(torify_proj_space(1), ["nope"])


class TestBlowupDecomposition:
    def test_point_in_plane(self):
        ct = torify_proj_space(2)
        out = blowup_decomposition(ct, ["cell0:t0"], 2)
        assert out.total_class.in_basis("L") == (1, 2, 1)

    def test_codim_one_leaves_class(self):
        ct = torify_proj_space(2)
        out = blowup_decomposition(ct, ["cell1:t0"], 1)
        assert out.total_class == ct.total_class

    def test_tree_curve_center(self):
        t = RootedTree.corolla((1, 2))
        ct = torify_tree_curve(t)
        out = blowup_decomposition(ct, ["v0:p0"], 2)
        assert out.total_class == ct.total_class + MotClass((1, 1))

    def test_formula_on_random_cases(self):
        rng = random.Random(7)
        for _ in range(25):
            pieces = [("p%d" % i, Torus(rng.randint(0, 3))) for i in range(rng.randint(1, 6))]
            ct = ConstructibleTorification(pieces)
            k = rng.randint(1, len(pieces))
            center = [lab for lab, _ in rng.sample(pieces, k)]
            codim = rng.randint(1, 4)
            out = blowup_decomposition(ct, center, codim)
            want = blowup_class(ct.total_class, selection_class(ct, center), codim)
            assert out.total_class == want

    def test_rejects_partial_center(self):
        ct = torify_proj_space(1)
        with pytest.raises(ValueError):
            blowup_decomposition(ct, {"cell1:t1": Torus(0)}, 2)


def _adapted_square():
    # cell structure of the square of a line, with the big cell split along
    # its diagonal: the diagonal gives a point and a torus, the rest a torus
    # and a 2-torus
    return ConstructibleTorification(
        [
            ("pt", Torus(0)),
            ("axis1:pt", Torus(0)),
            ("axis1:gm", Torus(1)),
            ("axis2:pt", Torus(0)),
            ("axis2:gm", Torus(1)),
            ("diag:pt", Torus(0)),
            ("diag:gm", Torus(1)),
            ("off:gm", Torus(1)),
            ("off:gm2", Torus(2)),
        ]
    )


class TestEquivShadow:
    def test_reflexive_strong(self):
        ct = torify_proj_space(2)
        assert equiv_shadow(ct, ct, "strong")

    def test_square_weak_not_strong(self):
        p1 = torify_proj_space(1)
        sq = product_torification(p1, p1)
        adapted = _adapted_square()
        assert not equiv_shadow(sq, adapted, "strong")
        assert equiv_shadow(sq, adapted, "weak")

    def test_different_class_fails_everywhere(self):
        a = torify_proj_space(1)
        b = torify_proj_space(2)
        assert not equiv_shadow(a, b, "strong")
        assert not equiv_shadow(a, b, "weak")

    def test_strong_implies_weak(self):
        rng = random.Random(3)
        for _ in range(20):
            pieces = [("p%d" % i, Torus(rng.randint(0, 3))) for i in range(rng.randint(1, 5))]
            ct = ConstructibleTorification(pieces)
            ct2 = ConstructibleTorification(list(reversed(pieces)))
            if equiv_shadow(ct, ct2, "strong"):
                assert equiv_shadow(ct, ct2, "weak")

    def test_unknown_level(self):
        ct = torify_proj_space(1)
        with pytest.raises(ValueError):
            equiv_shadow(ct, ct, "ordinary")


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        ConstructibleTorification([("a", Torus(0)), ("a", Torus(1))])


@pytest.mark.parametrize("piece", [3, None, {"op": "torus", "dim": 1}])
def test_pieces_must_be_expressions(piece):
    with pytest.raises(TypeError, match="^torification pieces must be expressions$"):
        ConstructibleTorification([("a", Torus(0)), ("b", piece)])


@pytest.mark.parametrize("pieces", [5, None, [("a",)], [("a", Torus(0), "extra")], [5], [("a", Torus(0)), Torus(1)]])
def test_pieces_must_be_label_expression_pairs(pieces):
    with pytest.raises(TypeError, match=r"^torification pieces must be \(label, expression\) pairs$"):
        ConstructibleTorification(pieces)


_TORUS = {"op": "torus", "dim": 1}


@pytest.mark.parametrize("obj,key", [
    ({}, "op"),
    ({"op": "torus"}, "dim"),
    ({"op": "union"}, "parts"),
    ({"op": "product"}, "factors"),
    ({"op": "complement", "removed": _TORUS}, "ambient"),
    ({"op": "complement", "ambient": _TORUS}, "removed"),
    ({"op": "product", "factors": [_TORUS, {"op": "torus"}]}, "dim"),
])
def test_a_missing_json_key_is_named(obj, key):
    with pytest.raises(ValueError, match="^missing JSON key '%s'$" % key):
        expr_from_json(obj)


_NOT_A_TORIFICATION = "^torifications must be ConstructibleTorifications$"


@pytest.mark.parametrize("call", [
    lambda ct: equiv_shadow(1, 2, "weak"),
    lambda ct: equiv_shadow(1, 2, "strong"),
    lambda ct: equiv_shadow(ct, 2, "weak"),
    lambda ct: equiv_shadow(5, ct, "ordinary"),
    lambda ct: is_strongly_complemented(5, ["a"]),
    lambda ct: selection_class(5, ["a"]),
    lambda ct: blowup_decomposition(5, ["a"], 2),
    lambda ct: blowup_decomposition(ct.pieces[0][1], ["cell0:t0"], 2),
])
def test_wrong_kinds_are_refused(call):
    with pytest.raises(TypeError, match=_NOT_A_TORIFICATION):
        call(torify_proj_space(1))


class TestStoredHash:
    @given(exprs(complements=True))
    def test_rebuilt_expression_is_equal_with_equal_hash(self, expr):
        again = expr_from_json(expr.to_json())
        assert again is not expr
        assert again == expr
        assert hash(again) == hash(expr) == hash(expr._key())

    def test_separate_open_strata_are_equal(self):
        first = constructible_open_stratum(2, 7).pieces[0][1]
        second = constructible_open_stratum(2, 7).pieces[0][1]
        assert first is not second
        assert first == second
        assert hash(first) == hash(second) == hash(first._key())

    def test_deep_torus_dim_breaks_equality(self):
        def build(dim):
            deep = Product([Torus(1), DisjointUnion([Torus(2), Product([Torus(0), Torus(dim)])])])
            return Complement(Product([deep, Torus(3)]), Torus(0))

        assert build(1) == build(1)
        assert build(1) != build(2)
        assert build(2) != build(1)
