"""Generating-series and recursion engines for the moduli-space classes.

The class recursions ``mbar0_class`` / ``tdn_class`` and the point counts
``solve_point_count_ode`` / ``f1m_count`` share one integer kernel: the tdn
recursion with T evaluated at an integer, its convolution folded in half.
One kernel pass runs the recursion at any set of integer nodes, sharing the
binomial row of each step among them.  Point counts are its values at
T = m, read off without building a class.  Classes are read off one pass in
one of two ways, chosen by the slot width that a run at T = 1 gives: a small
class from the pair T = X, -X, whose halved sum and difference hold its even
and odd coefficients as digits (Kronecker substitution at +-2^s, Harvey
2009), and a big one by exact interpolation through T = 0, 1, 2, ...  Every
count and series the CLI prints comes from this kernel.  The
coefficient-extraction solver ``solve_tdn_ode`` for the defining
differential equation runs over MotClass and is the independent oracle the
test suite checks the kernel against.

Series convention.  The solved series is psi(t) = sum_{n>=1} b_n t^n / n!
with b_1 = 1.  For the d-parameter family, b_n is the class of the space of
n-pointed stable rooted trees of d-dimensional projective spaces; for d = 1
this means b_n = mbar0_class(n + 1), the arity-n operad component.  (Reading
the coefficients as mbar0_class(n) instead is inconsistent with b_2 = 1 and
with the d = 1 specialization, so the shifted indexing is used throughout.)

All recursions are integral: binomials are exact and no rational scalars
ever appear.  Nothing is memoized: no request reads the same class twice,
so every call runs the kernel afresh and keeps no state.
"""

from math import comb, factorial
from operator import add, mul, sub

from .motive import MotClass, _Frozen, _check_int, _check_kind, expand_falling, proj_class


class EGFSeries(_Frozen):
    """Truncated exponential generating series with MotClass coefficients.

    ``coeffs`` holds c_1..c_N for psi(t) = sum c_n t^n / n!; c_1 must be 1.
    Coefficients beyond the truncation order are undefined, never implied
    zero.
    """

    __slots__ = ("order", "_coeffs")

    def __init__(self, coeffs):
        # an int coefficient as its class; MotClass refuses a non-int
        coeffs = _check_kind("coefficients", coeffs, object, "an iterable of classes or ints", each=True)
        coeffs = tuple(c if isinstance(c, MotClass) else MotClass((c,)) for c in coeffs)
        if not coeffs:
            raise ValueError("series needs at least the t coefficient")
        if coeffs[0] != MotClass.one():
            raise ValueError("series must begin t + ...")
        self._fill(len(coeffs), coeffs)

    def _args(self):
        return (self._coeffs,)

    def coeff(self, n):
        """c_n for 1 <= n <= order."""
        if not 1 <= _check_int("n", n) <= self.order:
            raise IndexError("coefficient %d outside truncation order %d" % (n, self.order))
        return self._coeffs[n - 1]

    @property
    def coeffs(self):
        return self._coeffs

    def __repr__(self):
        return "EGFSeries(order=%d)" % self.order

    def to_json(self, basis="T"):
        return {"order": self.order, "coeffs": [c.to_json(basis) for c in self._coeffs]}


def _check_order(order):
    """order as a plain int, if it is a series order, an int >= 1."""
    return _check_int("order", order, 1, ">= 1")


def solve_tdn_ode(d, order):
    """Series solution of (1 + L^d t - L [P^(d-1)] psi) psi' = 1 + psi.

    The unique solution with psi = t + O(t^2) is extracted coefficient by
    coefficient:

        b_{n+1} = b_n - n L^d b_n
                  + L [P^(d-1)] sum_{i+j=n, i>=1} C(n,i) b_i b_{j+1}.

    For d = 1 this specializes to the genus-zero series equation.
    """
    d, order = _check_int("d", d, 1), _check_order(order)
    ld = MotClass.lefschetz(d)
    hyper = MotClass.lefschetz() * proj_class(d - 1)
    b = [MotClass.one()]
    for n in range(1, order):
        total = MotClass.zero()
        for i in range(1, n + 1):
            j = n - i
            total = total + comb(n, i) * b[i - 1] * b[j]
        b.append(b[n - 1] - n * ld * b[n - 1] + hyper * total)
    return EGFSeries(b)


def _tdn_runs(d, order, nodes):
    """[b_1..b_order of the tdn recursion (see tdn_class) at T = t] for each integer t in nodes.

    The sum is folded by its symmetry i <-> n+1-i, as C(n,i) + C(n,i-1) =
    C(n+1,i): sum_{i=2}^{floor(n/2)} C(n+1,i) b_i b_{n+1-i}, plus C(n,h) b_h^2
    with h = (n+1)/2 for odd n.  That halves the big multiplications.  The
    binomial row is carried along, C(n+1, .) built from C(n, .) once per step
    and shared by every node; each node then runs its own scalar sum.
    """
    runs, factors = [], []
    for t in nodes:
        lef = t + 1
        p_lo, p_mid, p_hi = (sum(lef**k for k in range(j + 1)) for j in (d - 2, d - 1, d))
        runs.append([0, 1, p_mid])  # b[0] pads the 1-based indexing
        factors.append((p_hi, lef * p_lo, lef * p_mid))
    row = [1, 2, 1]  # C(n, .)
    for n in range(2, order):
        nxt = [1, *map(add, row, row[1:]), 1]
        h = n // 2
        binoms, square = nxt[2 : h + 1], row[h + 1]
        for b, (p_hi, lin, hyper) in zip(runs, factors):
            total = sum(map(mul, map(mul, binoms, b[2 : h + 1]), b[n - 1 : n - h : -1]))
            if n % 2:
                total += square * b[h + 1] ** 2
            b.append((p_hi + n * lin) * b[n] + hyper * total)
        row = nxt
    return [b[1 : order + 1] for b in runs]


def _unpack(plus, minus, width, total):
    """Coefficients of P, ascending, from P(X) and P(-X) with X = 2^(4*width).

    (P(X) + P(-X))/2 holds the even coefficients and (P(X) - P(-X))/(2X) the
    odd ones, each as base-2^(8*width) digits.  Both divisions must be exact
    and both quotients nonnegative; a carry makes the digit sum < total.
    """
    halves = []
    for value, divisor in ((plus + minus, 2), (plus - minus, 2 << 4 * width)):
        half, rem = divmod(value, divisor)
        if rem or half < 0:
            raise AssertionError("the runs at X and -X do not split into nonnegative even and odd parts")
        raw = half.to_bytes((half.bit_length() + 7) // 8, "little")
        halves.append([int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)])
    digits = [0] * (2 * max(map(len, halves)))
    for parity, slots in enumerate(halves):
        digits[parity : 2 * len(slots) : 2] = slots  # the shorter half is padded by the zeros
    if sum(digits) != total:
        raise AssertionError("slot width of %d bytes is too small: coefficients carried" % width)
    return digits


def _interpolate(values):
    """T-coefficients of the polynomial taking values[t] at T = t, t = 0..m.

    Newton forward differences: the j-th difference at 0 is j! times the
    j-th coefficient in the falling-factorial basis, an integer for an
    integer polynomial, so each division must be exact.  The degree must be
    below m, so the m-th difference must be 0.
    """
    diffs = []
    while values:
        diffs.append(values[0])
        values = list(map(sub, values[1:], values))
    if diffs.pop():
        raise AssertionError("the values exceed the degree: their last difference is nonzero")
    newton = []
    for j, diff in enumerate(diffs):
        q, r = divmod(diff, factorial(j))
        if r:
            raise AssertionError("difference %d is not a multiple of %d!" % (j, j))
        newton.append(q)
    # sum_j newton[j] T(T-1)...(T-j+1), expanded by Horner from the top
    coeffs = newton[-1:]
    for j in range(len(newton) - 2, -1, -1):
        coeffs = [newton[j] - j * coeffs[0], *map(sub, coeffs, map(j.__mul__, coeffs[1:])), coeffs[-1]]
    return coeffs


def solve_point_count_ode(d, m, order):
    """Integer analogue of solve_tdn_ode with L replaced by m + 1.

    Returns [p_1, ..., p_order], the point counts over the degree-m
    extension, from the specialized differential equation
    (1 + (m+1)^d t - (m+1) kappa eta) eta' = 1 + eta where
    kappa = 1 + (m+1) + ... + (m+1)^(d-1).  Its extraction step is the tdn
    recursion at T = m (the i = 1 and i = n convolution terms give
    (n+1) L [P^(d-1)] p_n, and 1 - n L^d + (n+1) L [P^(d-1)] equals
    [P^d] + n L [P^(d-2)]), so this runs the folded kernel at t = m.
    """
    d, m, order = _check_int("d", d, 1), _check_int("m", m, 0), _check_order(order)
    return _tdn_runs(d, order, (m,))[0]


# Slot width in bytes from which tdn_class interpolates rather than unpacks.
_INTERPOLATE_WIDTH = 40


def _check_tdn(d, n):
    """(d, n) of a tdn class as plain ints, d checked first."""
    return _check_int("d", d, 1), _check_int("n", n, 1)


def _mbar0_as_tdn(n):
    """(d, n) of the tdn class equal to mbar0_class(n): (1, n - 1)."""
    return 1, _check_int("n", n, 2) - 1


def mbar0_class(n):
    """Class of the compactified moduli space of n-pointed genus-zero curves.

    Recursion: c_{n+2} = c_{n+1} + L sum_{i+j=n+1, i>=2} C(n,i) c_{i+1} c_{j+1}
    with c_2 = c_3 = 1: the d = 1 case of tdn_class shifted by one,
    mbar0_class(n) = tdn_class(1, n - 1), computed by the same folded kernel
    and read-off.
    """
    return tdn_class(*_mbar0_as_tdn(n))


def tdn_class(d, n):
    """Class of the space of n-pointed stable rooted trees of P^d's.

    Recursion (valid for n >= 2):

        t_{n+1} = ([P^d] + n L [P^(d-2)]) t_n
                  + L [P^(d-1)] sum_{i+j=n+1, 2<=i<=n-1} C(n,i) t_i t_j

    with t_1 = 1 and t_2 = [P^(d-1)].  The relation only holds from n = 2,
    so t_2 is seeded from the first extraction step of the series equation;
    the sum factor is [P^(d-1)], which is what both the series equation and
    the d = 1 oracle require.

    The recursion runs on integers, its sum folded in half (_tdn_runs).
    Every [P^k] has nonnegative T-coefficients and the recursion only adds
    and multiplies, so each coefficient of t_k lies in [0, t_k(1)].  A run
    at T = 1 bounds them all, in a slot width of w bytes, and the class is
    read off one more kernel pass by one of two routes:

    * w below _INTERPOLATE_WIDTH: the pass runs at T = X and T = -X with
      X = 2^(4w).  Half their sum has the even coefficients in w-byte
      slots, and their difference over 2X the odd ones; each run has half
      the bits of a single run at 2^(8w).  Both divisions must be exact,
      and a carry between slots would make the digit sum miss t_k(1), so
      those checks guard the read-off.
    * otherwise: t_k has degree below e_k = max(d(k-1), 1), so the pass
      runs at T = 0..e_n and gives each t_k by Newton forward differences
      over the nodes 0..e_k.  A division by j! that leaves a remainder, or
      a last difference that is not 0, guards this read-off.

    Either guard raises AssertionError.  Measured at d = 1..4, the
    interpolation first beats the pair at a width of 37-41 bytes, hence the
    cutoff of 40.  Only class n is read off; nothing is kept.
    """
    d, n = _check_tdn(d, n)
    return _read_off(d, n)(n)


def _read_off(d, n):
    """k -> tdn_class(d, k) for 1 <= k <= n, read off one kernel pass (see tdn_class)."""
    (sums,) = _tdn_runs(d, n, (1,))
    width = (max(sums).bit_length() + 7) // 8
    if width < _INTERPOLATE_WIDTH:
        x = 1 << 4 * width
        plus, minus = _tdn_runs(d, n, (x, -x))
        return lambda k: MotClass(_unpack(plus[k - 1], minus[k - 1], width, sums[k - 1]))
    by_k = list(zip(*_tdn_runs(d, n, range(max(d * (n - 1), 1) + 1))))
    return lambda k: MotClass(_interpolate(by_k[k - 1][: max(d * (k - 1), 1) + 1]))


def f1m_count(d, n, m):
    """Point count of tdn_class(d, n) over the degree-m extension.

    The kernel's value at T = m, read off without building the class.  d and
    n are checked first, with tdn_class's messages, then m.
    """
    d, n = _check_tdn(d, n)
    return solve_point_count_ode(d, m, n)[n - 1]


def open_stratum_class(d, n):
    """Normalized open-stratum product: (c)(c-1)...(c-(n-3)) with c = L^d - 2.

    Equivalently prod_{j=2}^{n-1} (L^d - j); n = 2 gives the empty product 1.
    For d = 1 this is the class of the open moduli of (n+1)-pointed curves,
    the complement of the diagonals in a power of a thrice-punctured line.
    It always has a negative T-coefficient for n >= 3, so the open stratum
    on its own is never a nonnegative sum of tori.
    """
    ld = MotClass.lefschetz(_check_int("d", d, 1))
    out = MotClass.one()
    for j in range(2, _check_int("n", n, 2)):
        out = out * (ld - j)
    return out


def stratum_factor_class(d, n):
    """Class of the full vertex stratum: proj_class(d-1) * open_stratum_class(d, n).

    Normalizing n points in affine d-space by translations fixes the first
    point, but a homothety only scales along the line spanned by the second
    point, leaving a P^(d-1) of directions; the normalized product above
    accounts for the remaining points only.  For d = 1 the direction factor
    is a point and the two classes coincide.
    """
    return proj_class(d - 1) * open_stratum_class(d, n)


def m0_open_class(n):
    """Class of the open moduli of n-pointed genus-zero curves, n >= 3.

    Normalizing three of the markings to 0, 1, infinity leaves n - 3 moving
    coordinates, so the class is the product of n - 3 falling factors
    (T-1)...(T-n+3), matching the finite-field point count
    (q-2)...(q-n+2).
    """
    return expand_falling(_check_int("n", n, 3) - 3)
