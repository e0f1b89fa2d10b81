import random

import pytest
from hypothesis import example, given, strategies as st

from f1kit.motive import (
    MotClass,
    _linear_shift,
    blowup_class,
    expand_falling,
    expand_falling_stirling,
    format_poly,
    proj_class,
    signed_stirling1,
)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)
classes = coeff_lists.map(MotClass)


def schoolbook(a, b):
    # independent multiplication oracle
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def horner_shift(coeffs, s):
    # independent Taylor-shift oracle: coefficients of p(x + s) by Horner
    out = []
    for c in reversed(coeffs):
        # out := out * (x + s) + c
        new = [0] * (len(out) + 1)
        for i, v in enumerate(out):
            new[i] += v * s
            new[i + 1] += v
        new[0] += c
        while new and new[-1] == 0:
            new.pop()
        out = new
    return tuple(out)


_DEGREE_300 = tuple(random.Random(300).randint(-(10**40), 10**40) for _ in range(301))


class TestArithmetic:
    def test_identity(self):
        assert MotClass((2, 1)) * MotClass.one() == MotClass((2, 1))

    def test_product_example(self):
        assert MotClass((-1, 1)) * MotClass((-2, 1)) == MotClass((2, -3, 1))

    def test_absorbing_zero(self):
        assert MotClass((2, 1)) * MotClass.zero() == MotClass.zero()

    def test_canonical_form_strips_zeros(self):
        assert MotClass((1, 2, 0, 0)).coeffs == (1, 2)
        assert MotClass((0, 0)).coeffs == ()

    @given(classes, classes)
    def test_mul_matches_schoolbook(self, a, b):
        assert (a * b).coeffs == schoolbook(a.coeffs, b.coeffs)

    @given(classes, classes, classes)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(classes, classes)
    def test_degree_additive(self, a, b):
        if a and b:
            assert (a * b).degree == a.degree + b.degree

    @given(coeff_lists, coeff_lists, st.integers(-3, 3))
    @example([1, -1], [-1, 1], 0)  # sums and products that cancel to zero
    @example([0, 2, 0, 0], [5, -2], -2)  # trailing zeros in the input
    @example([], [4], 1)
    def test_ring_results_match_the_public_constructor(self, p, q, k):
        def plus(u, v):
            size = max(len(u), len(v))
            return [x + y for x, y in zip(u + [0] * (size - len(u)), v + [0] * (size - len(v)))]

        a, b, minus_p, minus_q = MotClass(p), MotClass(q), [-x for x in p], [-y for y in q]
        pairs = [
            (a + b, MotClass(plus(p, q))),
            (a - b, MotClass(plus(p, minus_q))),
            (-a, MotClass(minus_p)),
            (a * b, MotClass(schoolbook(p, q))),
            (a * k, MotClass([x * k for x in p])),
            (k * a, MotClass([x * k for x in p])),
            (a + k, MotClass(plus(p, [k]))),
            (k - a, MotClass(plus([k], minus_p))),
        ]
        for got, want in pairs:
            assert got == want
            assert not got.coeffs or got.coeffs[-1] != 0
            assert all(type(c) is int for c in got.coeffs)

    def test_int_coercion(self):
        assert MotClass((1, 1)) - 1 == MotClass.torus()
        assert 2 * MotClass.torus() == MotClass((0, 2))

    def test_pow(self):
        t = MotClass.torus() + 1
        assert t**3 == t * t * t
        assert t**0 == MotClass.one()

    @pytest.mark.parametrize("k", [0, 1, 5, -3])
    def test_constant_hashes_as_its_int(self, k):
        c = MotClass((k,))
        assert c == k
        assert hash(c) == hash(k)
        assert c in {k}
        assert k in {c}


class TestBasis:
    def test_t_plus_2_in_l(self):
        assert MotClass((2, 1)).in_basis("L") == (1, 1)

    def test_quadratic(self):
        assert MotClass((7, 7, 1)).in_basis("L") == (1, 5, 1)

    def test_zero(self):
        assert MotClass.zero().in_basis("L") == ()
        assert MotClass.zero().in_basis("T") == ()

    def test_from_l(self):
        assert MotClass.from_coeffs((1, 1), "L") == MotClass((2, 1))

    @given(classes)
    def test_round_trip(self, a):
        assert MotClass.from_coeffs(a.in_basis("L"), "L") == a
        assert MotClass.from_coeffs(a.in_basis("T"), "T") == a

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            MotClass.one().in_basis("Q")


class TestEffective:
    def test_examples(self):
        assert MotClass((2, 1)).is_effective()
        assert not MotClass((-1, 1)).is_effective()
        assert MotClass((7, 7, 1)).is_effective()
        assert MotClass.zero().is_effective()


class TestCountPoints:
    def test_euler_characteristic(self):
        assert MotClass((2, 1)).count_points(0) == 2

    def test_at_one(self):
        assert MotClass((7, 7, 1)).count_points(1) == 15

    @pytest.mark.parametrize("big_n", [1, 5, 10**40])
    def test_linear_family(self, big_n):
        cls = MotClass((big_n + 1, big_n))  # N T + N + 1
        for m in range(4):
            assert cls.count_points(m) == big_n * (m + 1) + 1

    @given(classes, classes, st.integers(min_value=0, max_value=6))
    def test_homomorphism(self, a, b, m):
        assert (a * b).count_points(m) == a.count_points(m) * b.count_points(m)


class TestPoincare:
    def test_p1(self):
        assert MotClass.from_coeffs((1, 1), "L").poincare() == (1, 0, 1)

    def test_quadratic(self):
        assert MotClass.from_coeffs((1, 5, 1), "L").poincare() == (1, 0, 5, 0, 1)

    def test_cubic(self):
        assert MotClass.from_coeffs((1, 16, 16, 1), "L").poincare() == (1, 0, 16, 0, 16, 0, 1)


class TestProjClass:
    def test_empty(self):
        assert proj_class(-1) == MotClass.zero()

    def test_line(self):
        assert proj_class(1) == MotClass((2, 1))

    def test_plane(self):
        assert proj_class(2) == MotClass((3, 3, 1))

    def test_range_error(self):
        with pytest.raises(ValueError):
            proj_class(-2)


class TestBlowup:
    def test_point_in_plane(self):
        got = blowup_class(proj_class(2), MotClass.one(), 2)
        assert got.in_basis("L") == (1, 2, 1)

    @given(classes, classes)
    def test_codim_one_is_identity(self, x, y):
        assert blowup_class(x, y, 1) == x

    def test_diagonal_in_cube(self):
        x = proj_class(1) ** 3
        y = proj_class(1)
        got = blowup_class(x, y, 2)
        assert got == x + y * MotClass.lefschetz()

    def test_range_error(self):
        with pytest.raises(ValueError):
            blowup_class(MotClass.one(), MotClass.one(), 0)


class TestExpandFalling:
    def test_empty_product(self):
        assert expand_falling(0) == MotClass.one()

    def test_one_factor(self):
        assert expand_falling(1) == MotClass((-1, 1))

    def test_two_factors_against_direct_multiplication(self):
        direct = MotClass((-1, 1)) * MotClass((-2, 1))
        assert expand_falling(2) == direct

    @pytest.mark.parametrize("m", [*range(13), 64, 260])
    def test_stirling_path_agrees(self, m):
        assert expand_falling(m) == expand_falling_stirling(m)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_negative_coefficient_for_positive_m(self, m):
        assert not expand_falling(m).is_effective()

    def test_stirling_row(self):
        # s(4,k): falling factorial x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
        assert signed_stirling1(4) == (0, -6, 11, -6, 1)


class TestLinearShift:
    """The basis change against the Horner oracle."""

    @given(st.lists(st.integers(), max_size=301), st.sampled_from([1, -1]))
    @example([], 1)
    @example([], -1)
    @example([7], 1)
    @example([-7], -1)
    @example([-3, -5, -1], 1)
    @example([-3, -5, -1], -1)
    @example([2, 0, 0], -1)
    @example(list(_DEGREE_300), 1)
    @example(list(_DEGREE_300), -1)
    def test_matches_horner(self, coeffs, s):
        assert _linear_shift(tuple(coeffs), s) == horner_shift(coeffs, s)

    @pytest.mark.parametrize("s", [1, -1])
    def test_degree_300_round_trip(self, s):
        assert _linear_shift(_linear_shift(_DEGREE_300, s), -s) == _DEGREE_300


class TestSerialization:
    def test_json_schema(self):
        assert MotClass((2, 1)).to_json() == {"basis": "T", "coeffs": ["2", "1"]}

    @given(classes, st.sampled_from(["T", "L"]))
    def test_round_trip(self, a, basis):
        assert MotClass.from_json(a.to_json(basis)) == a

    @pytest.mark.parametrize("obj,key", [({}, "basis"), ({"basis": "T"}, "coeffs"), ({"coeffs": ["1"]}, "basis")])
    def test_a_missing_key_is_named(self, obj, key):
        with pytest.raises(ValueError, match="^missing JSON key '%s'$" % key):
            MotClass.from_json(obj)

    def test_format(self):
        assert format_poly((2, -3, 1), "T") == "T^2-3T+2"
        assert format_poly((1, 16, 16, 1), "L") == "L^3+16L^2+16L+1"
        assert format_poly((), "T") == "0"
        assert format_poly((0, 1), "T") == "T"
        assert format_poly((-1,), "T") == "-1"


def test_immutability():
    a = MotClass((1, 2))
    with pytest.raises(AttributeError):
        a.coeffs = (5,)
