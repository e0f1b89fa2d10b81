from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from f1kit import genseries
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
from f1kit.motive import MotClass, expand_falling, proj_class

L = MotClass.lefschetz()


def comb_kernel(d, order, t):
    # the folded kernel at one node with one math.comb per term: oracle for _tdn_runs
    lef = t + 1
    p_lo, p_mid, p_hi = (sum(lef**k for k in range(j + 1)) for j in (d - 2, d - 1, d))
    lin, hyper = lef * p_lo, lef * p_mid
    b = [0, 1, p_mid]
    for n in range(2, order):
        total = sum(comb(n + 1, i) * b[i] * b[n + 1 - i] for i in range(2, n // 2 + 1))
        if n % 2:
            total += comb(n, n // 2 + 1) * b[n // 2 + 1] ** 2
        b.append((p_hi + n * lin) * b[n] + hyper * total)
    return b[1 : order + 1]


class TestOdeSolver:
    def test_first_coefficient_forced(self):
        assert solve_tdn_ode(1, 1).coeff(1) == MotClass.one()

    def test_b2_d1(self):
        assert solve_tdn_ode(1, 2).coeff(2) == MotClass.one()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_b2_is_hyperplane_class(self, d):
        assert solve_tdn_ode(d, 2).coeff(2) == proj_class(d - 1)

    def test_b3_d2_hand_value(self):
        # two extraction steps: (L+1)(L^2+3L+1)
        want = MotClass.from_coeffs((1, 4, 4, 1), "L")
        assert solve_tdn_ode(2, 3).coeff(3) == want

    def test_range_errors(self):
        with pytest.raises(ValueError):
            solve_tdn_ode(0, 5)
        with pytest.raises(ValueError):
            solve_tdn_ode(1, 0)

    def test_series_invariants(self):
        s = solve_tdn_ode(2, 5)
        assert s.order == 5
        assert len(s.coeffs) == 5
        with pytest.raises(IndexError):
            s.coeff(6)
        with pytest.raises(IndexError):
            s.coeff(0)

    def test_series_must_start_with_t(self):
        with pytest.raises(ValueError):
            EGFSeries([MotClass.lefschetz()])

    def test_an_int_coefficient_is_its_class(self):
        s = EGFSeries([1, 5])
        assert s == EGFSeries([MotClass.one(), MotClass((5,))])
        assert s.to_json()["coeffs"][1] == {"basis": "T", "coeffs": ["5"]}

    def test_a_bool_coefficient_is_its_int(self):
        s = EGFSeries([True, False, True])
        assert s.coeffs == (MotClass.one(), MotClass(), MotClass.one())
        assert repr(s.coeff(3)) == "MotClass([1])"

    @pytest.mark.parametrize("bad", ["x", 1.0, None, (1, 2)])
    def test_any_other_coefficient_raises_type_error(self, bad):
        with pytest.raises(TypeError, match="^coefficients must be ints, got "):
            EGFSeries([MotClass.one(), bad])

    def test_json(self):
        s = solve_tdn_ode(1, 3)
        doc = s.to_json()
        assert doc["order"] == 3
        assert doc["coeffs"][2] == {"basis": "T", "coeffs": ["2", "1"]}


class TestMbar0:
    def test_point(self):
        assert mbar0_class(2) == MotClass.one()
        assert mbar0_class(3) == MotClass.one()

    def test_line(self):
        assert mbar0_class(4) == MotClass.from_coeffs((1, 1), "L")

    def test_known_values(self):
        assert mbar0_class(5).in_basis("L") == (1, 5, 1)
        assert mbar0_class(6).in_basis("L") == (1, 16, 16, 1)

    def test_range_error(self):
        with pytest.raises(ValueError):
            mbar0_class(1)

    def test_matches_ode(self):
        s = solve_tdn_ode(1, 10)
        for n in range(2, 11):
            assert mbar0_class(n + 1) == s.coeff(n)

    def test_positivity(self):
        for n in range(2, 13):
            assert mbar0_class(n).is_effective()


class TestTdn:
    def test_base(self):
        assert tdn_class(1, 1) == MotClass.one()
        assert tdn_class(3, 1) == MotClass.one()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_two_points(self, d):
        assert tdn_class(d, 2) == proj_class(d - 1)

    def test_d1_specializes(self):
        for n in range(1, 11):
            assert tdn_class(1, n) == mbar0_class(n + 1)

    def test_matches_ode(self):
        for d in (2, 3):
            s = solve_tdn_ode(d, 7)
            for n in range(1, 8):
                assert tdn_class(d, n) == s.coeff(n)

    def test_positivity(self):
        for d in (1, 2, 3):
            for n in range(1, 9):
                assert tdn_class(d, n).is_effective()

    def test_range_errors(self):
        with pytest.raises(ValueError):
            tdn_class(0, 3)
        with pytest.raises(ValueError):
            tdn_class(1, 0)


def _times(a, b, order):
    # product of two power series, coefficient lists from t^0, truncated after t^order
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def inverse_oracle(d, m, order):
    """[p_1, ..., p_order] from the exact inverse of the series equation at L = m + 1.

    With u = log(1 + psi), (1 + L^d t - L [P^(d-1)] psi) psi' = 1 + psi is
    linear in t(u): dt/du = [P^d] + L^d t - L [P^(d-1)] e^u, t(0) = 0, so
    t = sum_k tau_k u^k / k! with
    tau_k = [P^d] L^(d(k-1)) - L [P^(d-1)] (1 + L^d + ... + L^(d(k-1))).
    Reverting t(u) gives u(t), and psi = e^u - 1 = sum_n p_n t^n / n!.
    Exact fractions throughout; no recursion of genseries is used.
    """
    lef = m + 1
    p_d, p_below = sum(lef**i for i in range(d + 1)), sum(lef**i for i in range(d))
    t_of_u = [Fraction(0)] + [
        Fraction(p_d * lef ** (d * (k - 1)) - lef * p_below * sum(lef ** (d * j) for j in range(k)), factorial(k))
        for k in range(1, order + 1)
    ]
    assert t_of_u[1] == 1
    # u = t - sum_{k>=2} t_k u^k: each pass fixes one more coefficient of u(t)
    u = [Fraction(0), Fraction(1)]
    for _ in range(order):
        nxt, power = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1), u
        for k in range(2, order + 1):
            power = _times(power, u, order)
            nxt = [x - t_of_u[k] * y for x, y in zip(nxt, power)]
        u = nxt
    psi, power = [Fraction(0)] * (order + 1), [Fraction(1)]
    for j in range(1, order + 1):
        power = _times(power, u, order)
        psi = [x + y / factorial(j) for x, y in zip(psi, power)]
    return [psi[n] * factorial(n) for n in range(1, order + 1)]


class TestInverseOracle:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 9])
    def test_point_counts_match_the_inverse_series(self, d, m):
        got = inverse_oracle(d, m, 12)
        assert all(p.denominator == 1 for p in got)
        assert got == solve_point_count_ode(d, m, 12)


def power_oracle(d, m, order):
    """[p_1, ..., p_order] from the closed form of the inverse of the series equation at L = m + 1 >= 2.

    Solving the linear equation for t(u) of inverse_oracle in closed form, with a = L^d and x = 1 + psi, gives
    t = [L psi - (x^a - 1)/a] / (L - 1).  The power x^a comes from J. C. P. Miller's recurrence (Knuth, TAOCP
    vol. 2, 4.7): with psi = sum g_k t^k, n y_n = sum_{k=1}^{n} ((a + 1)k - n) g_k y_{n-k}, y_0 = 1.  Its k = n
    term is a n g_n, so the coefficient of t^n in that identity gives g_n from g_1..g_{n-1}.  Exact fractions
    throughout; no recursion of genseries is used.
    """
    lef = m + 1
    a = lef**d
    g, y = [Fraction(0)], [Fraction(1)]
    for n in range(1, order + 1):
        # y_n less its g_n term
        rest = Fraction(sum(((a + 1) * k - n) * g[k] * y[n - k] for k in range(1, n)), n)
        # [t^n] of (L - 1) t = L g_n - y_n / a
        g.append((n == 1) + rest / (a * (lef - 1)))
        y.append(a * g[n] + rest)
    return [g[n] * factorial(n) for n in range(1, order + 1)]


def _interpolated(nodes, values):
    """Ascending coefficients of the polynomial through the points (nodes[i], values[i]), by Lagrange's formula."""
    out = [Fraction(0)] * len(nodes)
    for j, (xj, vj) in enumerate(zip(nodes, values)):
        basis, scale = [Fraction(1)], Fraction(vj)
        for i, xi in enumerate(nodes):
            if i != j:
                # times (T - xi)
                basis = [b - xi * c for b, c in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                scale /= xj - xi
        out = [o + scale * b for o, b in zip(out, basis)]
    return out


class TestPowerOracle:
    @pytest.mark.parametrize("d,m,order", [(1, 1, 30), (2, 1, 30), (3, 2, 30), (2, 9, 60), (1, 9, 100), (2, 9, 150),
                                           (3, 9, 150), (2, 9, 300)])
    def test_point_counts_match_the_closed_form(self, d, m, order):
        got = power_oracle(d, m, order)
        assert all(p.denominator == 1 for p in got)
        assert got == solve_point_count_ode(d, m, order)

    @pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (1, 8), (2, 6), (3, 5), (4, 4)])
    def test_interpolated_values_give_the_class(self, d, n):
        # the class has degree at most e = max(d(n - 1), 1); its values at T = 1..e + 1 fix it
        nodes = range(1, max(d * (n - 1), 1) + 2)
        coeffs = _interpolated(nodes, [power_oracle(d, t, n)[-1] for t in nodes])
        assert all(c.denominator == 1 for c in coeffs)
        assert MotClass([int(c) for c in coeffs]) == tdn_class(d, n)


class TestPointCounts:
    def test_euler_characteristics(self):
        assert f1m_count(1, 3, 0) == 2
        assert f1m_count(1, 4, 1) == 15
        assert f1m_count(1, 1, 0) == 1
        assert f1m_count(1, 1, 7) == 1

    def test_specialized_ode(self):
        # the point counts solve the same equation with L replaced by m + 1
        for d in (1, 2):
            for m in range(6):
                counts = solve_point_count_ode(d, m, 8)
                for n in range(1, 9):
                    assert f1m_count(d, n, m) == counts[n - 1]

    def test_matches_class_count(self):
        # the kernel at T = m against the class, counted (every size here reads it off packed)
        for d in range(1, 5):
            for n in range(1, 25):
                cls = tdn_class(d, n)
                for m in (0, 1, 2, 5, 9):
                    assert f1m_count(d, n, m) == cls.count_points(m), (d, n, m)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, 0, -1), "d must be a positive int"),
            ((1, 0, -1), "n must be a positive int"),
            ((1, 3, -1), "m must be a nonnegative int"),
            ((2, 3, 1.0), "m must be a nonnegative int"),
        ],
    )
    def test_range_errors_in_order(self, args, message):
        with pytest.raises(ValueError, match=message):
            f1m_count(*args)


class TestOpenStratum:
    def test_d1_examples(self):
        assert open_stratum_class(1, 3) == MotClass((-1, 1))
        assert open_stratum_class(1, 4) == MotClass((2, -3, 1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_product(self, d):
        assert open_stratum_class(d, 2) == MotClass.one()

    def test_equals_falling_product(self):
        for n in range(2, 9):
            assert open_stratum_class(1, n) == expand_falling(n - 2)

    def test_negativity(self):
        for d in (1, 2, 3):
            for n in range(3, 11):
                assert not open_stratum_class(d, n).is_effective()

    def test_range_error(self):
        with pytest.raises(ValueError):
            open_stratum_class(1, 1)

    def test_factor_class(self):
        # direction factor is trivial for d = 1 and P^(d-1) in general
        for n in range(2, 8):
            assert stratum_factor_class(1, n) == open_stratum_class(1, n)
        assert stratum_factor_class(2, 2) == proj_class(1)
        assert stratum_factor_class(2, 3) == proj_class(1) * (L * L - 2)


class TestOpenClassReadings:
    def test_validated_reading(self):
        assert m0_open_class(4) == MotClass((-1, 1))
        assert m0_open_class(5) == MotClass((2, -3, 1))

    def test_point_count_oracle_distinguishes(self):
        # over a field with q elements the open moduli with n markings has
        # (q-2)(q-3)...(q-n+2) points; T evaluates at q - 1
        for n in range(4, 9):
            q = 101
            want = 1
            for j in range(2, n - 1):
                want *= q - j
            assert m0_open_class(n).count_points(q - 1) == want
            if n > 4:
                # normalizing only two markings keeps one more falling factor
                assert expand_falling(n - 2).count_points(q - 1) != want

    def test_two_point_reading_has_one_more_factor(self):
        t = MotClass((0, 1))
        for n in range(3, 8):
            assert m0_open_class(n) == expand_falling(n - 3)
            assert expand_falling(n - 2) == m0_open_class(n) * (t - (n - 2))


class TestKernel:
    """The folded integer kernel against the series solver over MotClass."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_classes_match_series_solver(self, d):
        series = solve_tdn_ode(d, 30)
        for n in range(1, 31):
            assert tdn_class(d, n) == series.coeff(n), "d=%d n=%d" % (d, n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_point_counts_match_series_solver(self, d):
        series = solve_tdn_ode(d, 30)
        for m in range(10):
            want = [series.coeff(n).count_points(m) for n in range(1, 31)]
            assert solve_point_count_ode(d, m, 30) == want, "d=%d m=%d" % (d, m)

    def test_mbar0_is_tdn_shifted(self):
        for n in range(2, 61):
            assert mbar0_class(n) == tdn_class(1, n - 1), "n=%d" % n

    def test_memo_grows_to_fresh_values(self):
        # (2, 10) and (2, 30) are read off at different slot widths
        assert _width(2, 10) < _width(2, 30)
        small, grown = genseries._read_off(2, 10), genseries._read_off(2, 30)
        assert [grown(k) for k in range(1, 11)] == [small(k) for k in range(1, 11)]
        assert tdn_class(2, 30) == grown(30)
        assert tdn_class(2, 10) == small(10)

    @given(st.integers(1, 4), st.integers(1, 60), st.lists(st.sampled_from([0, 1, 9, -9, 2**64, -(2**64)]), max_size=4))
    def test_matches_comb_oracle(self, d, order, nodes):
        assert genseries._tdn_runs(d, order, nodes) == [comb_kernel(d, order, t) for t in nodes]

    def test_point_count_order_one(self):
        assert solve_point_count_ode(3, 4, 1) == [1]

    def test_digit_sum_guard(self):
        (sums,) = genseries._tdn_runs(2, 12, (1,))
        width = (max(sums).bit_length() + 7) // 8
        assert width > 1
        x = 1 << 4 * width
        plus, minus = genseries._tdn_runs(2, 12, (x, -x))
        assert MotClass(genseries._unpack(plus[-1], minus[-1], width, sums[-1])) == tdn_class(2, 12)
        # one byte too few: both halves still divide exactly, but their slots carry
        x = 1 << 4 * (width - 1)
        plus, minus = genseries._tdn_runs(2, 12, (x, -x))
        with pytest.raises(AssertionError, match="carried"):
            genseries._unpack(plus[-1], minus[-1], width - 1, sums[-1])


def _fill(monkeypatch, d, n, cutoff):
    # one read-off of (d, n) with the given cutoff; returns its classes (d, 1..n)
    monkeypatch.setattr(genseries, "_INTERPOLATE_WIDTH", cutoff)
    read = genseries._read_off(d, n)
    return [read(k) for k in range(1, n + 1)]


def _width(d, n):
    return (max(genseries._tdn_runs(d, n, (1,))[0]).bit_length() + 7) // 8


def _corrupt(monkeypatch, bump):
    # the kernel with bump(t) added to its last value at each node T = t
    kernel = genseries._tdn_runs

    def corrupted(d, order, nodes):
        runs = kernel(d, order, nodes)
        for t, values in zip(nodes, runs):
            values[-1] += bump(t)
        return runs

    monkeypatch.setattr(genseries, "_tdn_runs", corrupted)


class TestReadOffRoutes:
    """The packed and the interpolated read-off against each other and the oracle."""

    PACKED, INTERPOLATED = 10**9, 0

    @pytest.mark.parametrize("d,below,above", [(1, 57, 60), (2, 45, 48), (3, 39, 41), (4, 35, 36)])
    def test_routes_agree_across_the_cutoff(self, monkeypatch, d, below, above):
        assert _width(d, below) < genseries._INTERPOLATE_WIDTH <= _width(d, above)
        for n in (below, above):
            packed = _fill(monkeypatch, d, n, self.PACKED)
            assert _fill(monkeypatch, d, n, self.INTERPOLATED) == packed, "d=%d n=%d" % (d, n)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_interpolation_matches_series_solver_small(self, monkeypatch, d):
        series = solve_tdn_ode(d, 12)
        for n in range(1, 13):
            assert _fill(monkeypatch, d, n, self.INTERPOLATED) == list(series.coeffs[:n]), "d=%d n=%d" % (d, n)

    def test_cutoff_picks_the_route(self, monkeypatch):
        calls = []
        interpolate = genseries._interpolate
        monkeypatch.setattr(genseries, "_interpolate", lambda values: calls.append(1) or interpolate(values))
        assert _width(1, 58) < genseries._INTERPOLATE_WIDTH <= _width(1, 59)
        tdn_class(1, 58)
        assert not calls
        tdn_class(1, 59)
        assert len(calls) == 1

    @pytest.mark.parametrize("cutoff", [PACKED, INTERPOLATED])
    def test_one_kernel_pass_after_the_probe(self, monkeypatch, cutoff):
        nodes = []
        kernel = genseries._tdn_runs
        monkeypatch.setattr(genseries, "_tdn_runs", lambda d, order, at: nodes.append(tuple(at)) or kernel(d, order, at))
        monkeypatch.setattr(genseries, "_INTERPOLATE_WIDTH", cutoff)
        read = genseries._read_off(3, 12)
        assert [read(k) for k in range(1, 13)] == list(solve_tdn_ode(3, 12).coeffs)
        assert len(nodes) == 2 and nodes[0] == (1,)

    def test_interpolated_fill_matches_series_solver(self):
        # (1, 70) has a slot width of 49 bytes, so it is interpolated
        assert _width(1, 70) >= genseries._INTERPOLATE_WIDTH
        series = solve_tdn_ode(1, 70)
        read = genseries._read_off(1, 70)
        for n in range(1, 71):
            assert read(n) == series.coeff(n), "n=%d" % n

    @pytest.mark.parametrize("node", [0, 1, 7, 21])
    def test_interpolation_guard_catches_a_bumped_node(self, monkeypatch, node):
        # nodes 0..21 pin tdn_class(3, 8), of degree 20
        _corrupt(monkeypatch, lambda t: int(t == node))
        monkeypatch.setattr(genseries, "_INTERPOLATE_WIDTH", self.INTERPOLATED)
        with pytest.raises(AssertionError, match="last difference is nonzero"):
            tdn_class(3, 8)

    def test_interpolation_guard_catches_an_inexact_division(self, monkeypatch):
        # adding T(T-1)/2 at every node keeps the values integral and of degree
        # 20, but makes the second Newton coefficient a half
        _corrupt(monkeypatch, lambda t: t * (t - 1) // 2)
        monkeypatch.setattr(genseries, "_INTERPOLATE_WIDTH", self.INTERPOLATED)
        with pytest.raises(AssertionError, match="difference 2 is not a multiple of 2!"):
            tdn_class(3, 8)

    def test_interpolation_guard_on_the_default_route(self, monkeypatch):
        _corrupt(monkeypatch, lambda t: int(t == 40))
        with pytest.raises(AssertionError):
            tdn_class(1, 70)

    def test_packed_guard_catches_a_bumped_value(self, monkeypatch):
        # tdn_class(2, 12) is read off packed, from its runs at T = X and T = -X
        width = _width(2, 12)
        assert width < genseries._INTERPOLATE_WIDTH
        for node in (1 << 4 * width, -1 << 4 * width):
            _corrupt(monkeypatch, lambda t: int(t == node))
            with pytest.raises(AssertionError, match="even and odd parts"):
                tdn_class(2, 12)
            monkeypatch.undo()
