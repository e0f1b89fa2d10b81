"""Exact arithmetic for classes that are integer polynomials in the torus class.

A class is represented in the T-basis: the tuple ``(a_0, a_1, ..., a_d)``
holds the coefficient ``a_k`` of ``T^k``, where ``T`` is the class of the
one-dimensional torus and ``L = T + 1`` is the class of the affine line.
The trailing (highest-index) coefficient is nonzero; the empty tuple is the
zero class, so equality of values is structural equality.  Coefficients are
plain Python ints, hence arbitrary precision; no floating point is used
anywhere.

Values are immutable and all operations are pure, so they can be shared
freely between threads or workers: each f1kit value type derives from
``_Frozen``, which compares, hashes and pickles it by its constructor
arguments (``tests/test_frozen.py``, across hash seeds too).
"""

from itertools import accumulate
from math import comb
from operator import add, index, neg


def _check_int(name, value, low=None, floor=None, high=None, message=None):
    """value as a plain int, if it is an int in low..high (a bound None is open); a bool counts as its int.

    Otherwise raises ValueError(message), by default "<name> must be <floor>", the floor by default "an int in
    <low>..<high>" for two bounds, else "an int" for no low, "a nonnegative int" for low 0, "a positive int" for
    low 1 and "an int >= <low>" for any other.
    """
    if isinstance(value, int) and (low is None or value >= low) and (high is None or value <= high):
        return index(value)
    if floor is None and high is not None:
        floor = "an int in %d..%d" % (low, high)
    elif floor is None:
        floor = {None: "an int", 0: "a nonnegative int", 1: "a positive int"}.get(low) or "an int >= %d" % low
    raise ValueError(message or "%s must be %s" % (name, floor))


def _check_kind(name, value, kind, what, each=False, size=None):
    """value, if it is a kind (a type or a tuple of types, as isinstance takes it); with each, value as a tuple,
    if it is iterable and each item is a kind, with size entries if size is given.

    Otherwise raises TypeError("<name> must be <what>"), one message for the collection and its items.
    """
    if not each:
        if isinstance(value, kind):
            return value
    else:
        try:
            items = iter(value)
        except TypeError:
            items = None
        if items is not None:
            value = tuple(items)
            # a loop, not all(map(...)): about half the cost for the few items of a monomial
            for item in value:
                if not isinstance(item, kind) or size is not None and len(item) != size:
                    break
            else:
                return value
    raise TypeError("%s must be %s" % (name, what))


def _json_key(obj, key):
    """obj[key], for a reader of f1kit's JSON: a node that is not an object raises TypeError, a missing key
    ValueError, which names it."""
    try:
        return _check_kind("JSON node", obj, dict, "an object")[key]
    except KeyError:
        raise ValueError("missing JSON key %r" % (key,)) from None


class _Frozen:
    """Base of every f1kit value, and the only writer of its slots; setting or deleting one from outside raises.

    A type's slots are taken in order, its own before its bases'.  Every constructor ends with ``_fill``, which
    sets the first of them from its values, ``_new`` builds a value from parts its caller has already checked,
    and ``_keep`` sets a slot that is derived on first use.  ``_args()`` names a value by its constructor
    arguments: two values of one type are equal when their args are, a value hashes as its args, and copy and
    pickle rebuild it through its constructor, which checks them again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # each slot's member descriptor setter, in slot order: faster per value than object.__setattr__ by name
        cls._setters = tuple(getattr(cls, s).__set__ for c in cls.__mro__ for s in c.__dict__.get("__slots__", ()))

    def _fill(self, *values):
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _new(cls, *values):
        self = object.__new__(cls)
        # _fill's loop, inline: a call less per value on the paths that build many
        for setter, value in zip(cls._setters, values):
            setter(self, value)
        return self

    # object.__setattr__ bound as a method, so a call runs no Python frame; enumerate_stable_trees makes one per tree
    _keep = object.__setattr__

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self):
        return hash(self._args())

    def __reduce__(self):
        return type(self), self._args()


class MotClass(_Frozen):
    """Integer polynomial in the torus class T, canonical form."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        coeffs = _check_kind("coefficients", coeffs, object, "an iterable of ints", each=True)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be ints, got %r" % (c,))
        coeffs = list(map(index, coeffs))  # a bool as its int
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._fill(tuple(coeffs))

    def _args(self):
        return (self._coeffs,)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def torus(cls, k=1):
        """T^k."""
        return cls((0,) * _check_int("torus power", k, 0) + (1,))

    @classmethod
    def lefschetz(cls, k=1):
        """L^k = (T+1)^k."""
        k = _check_int("lefschetz power", k, 0)
        return cls(tuple(comb(k, j) for j in range(k + 1)))

    @classmethod
    def from_coeffs(cls, coeffs, basis="T"):
        """Build a class from a coefficient sequence in the T- or L-basis."""
        if basis == "T":
            return cls(coeffs)
        if basis == "L":
            # expand sum b_k (T+1)^k
            return cls(_linear_shift(tuple(coeffs), 1))
        raise ValueError("basis must be 'T' or 'L'")

    # -- accessors -----------------------------------------------------

    @property
    def coeffs(self):
        """T-basis coefficients, ascending by degree."""
        return self._coeffs

    @property
    def degree(self):
        """Degree in T; the zero class has degree -1."""
        return len(self._coeffs) - 1

    def in_basis(self, basis):
        """Coefficient sequence of this class in the given basis.

        Conversions T <-> L are mutually inverse: round-tripping through
        ``from_coeffs`` restores the value exactly.
        """
        if basis == "T":
            return self._coeffs
        if basis == "L":
            return _linear_shift(self._coeffs, -1)
        raise ValueError("basis must be 'T' or 'L'")

    def coefficient(self, k):
        return self._coeffs[k] if 0 <= _check_int("k", k) < len(self._coeffs) else 0

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return _of_ints([*map(add, a, b), *a[len(b) :]])

    __radd__ = __add__

    def __neg__(self):
        return _of_ints(list(map(neg, self._coeffs)))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return _of_ints([c * other for c in self._coeffs])
        a, b = self._coeffs, _coerce(other)._coeffs
        if not a or not b:
            return MotClass()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _of_ints(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _check_int("exponent", n, 0)
        out = MotClass.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # not _Frozen's: a class of degree <= 0 equals, and so hashes as, its int
    def __eq__(self, other):
        return _Frozen.__eq__(self, _coerce(other) if isinstance(other, int) else other)

    def __hash__(self):
        return hash(self._coeffs) if len(self._coeffs) > 1 else hash(sum(self._coeffs))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return "MotClass(%r)" % (list(self._coeffs),)

    def __str__(self):
        return format_poly(self._coeffs, "T")

    # -- interpretation -------------------------------------------------

    def is_effective(self):
        """True iff every T-basis coefficient is >= 0.

        This is the necessary condition for the class to decompose as a
        nonnegative sum of torus classes.
        """
        return all(c >= 0 for c in self._coeffs)

    def count_points(self, m):
        """Number of points over the degree-m extension: sum a_k m^k.

        m = 0 gives the Euler characteristic (the constant T-coefficient).
        """
        m = _check_int("m", m, 0)
        total = 0
        power = 1
        for c in self._coeffs:
            total += c * power
            power *= m
        return total

    def poincare(self):
        """Poincare polynomial coefficients in q, from L |-> q^2.

        Returns the coefficient tuple of sum_k b_k q^(2k) where b_k are the
        L-basis coefficients; index = power of q.
        """
        b = self.in_basis("L")
        if not b:
            return ()
        out = [0] * (2 * (len(b) - 1) + 1)
        for k, c in enumerate(b):
            out[2 * k] = c
        return tuple(out)

    # -- serialization ---------------------------------------------------

    def to_json(self, basis="T"):
        """{"basis": ..., "coeffs": [decimal strings, ascending]}."""
        return {"basis": basis, "coeffs": [str(c) for c in self.in_basis(basis)]}

    @classmethod
    def from_json(cls, obj):
        basis = _json_key(obj, "basis")
        coeffs = _check_kind("coeffs", _json_key(obj, "coeffs"), (str, int), "decimal strings", each=True)
        return cls.from_coeffs([int(s) for s in coeffs], basis)


def _of_ints(coeffs):
    """The MotClass of a list of ints, which it trims and takes over unchecked: for ring results."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    # not MotClass._new: every ring result comes through here, and with one slot _new's loop is its cost (2-core
    # VM, Python 3.11: 434-451 ns a call here, 702-779 ns through _new; solve_tdn_ode(1, 28) 4.5-4.7 -> 4.7-5.0 ms)
    out = object.__new__(MotClass)
    object.__setattr__(out, "_coeffs", tuple(coeffs))
    return out


def _coerce(x):
    if isinstance(x, MotClass):
        return x
    if isinstance(x, int):
        return _of_ints([index(x)])
    raise TypeError("cannot combine MotClass with %r" % (x,))


def _linear_shift(coeffs, s):
    """Coefficients of p(x + s), s = 1 or -1, given those of p.

    Those of p(x + 1) are p's Taylor coefficients at 1: each is the remainder
    of one synthetic division by x - 1, and that division is a running sum
    over the coefficients, highest first.  So the shift is a run of
    accumulate passes, each shorter by one.  s = -1 conjugates by x -> -x,
    as p(x - 1) = q(1 - x) for q(x) = p(-x): flip the signs of the odd
    coefficients, shift by 1, and flip them back.
    """
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if s == -1:
        c[1::2] = map(neg, c[1::2])
    out = []
    rest = c[::-1]
    while rest:
        rest = list(accumulate(rest))
        out.append(rest.pop())
    if s == -1:
        out[1::2] = map(neg, out[1::2])
    return tuple(out)


def format_poly(coeffs, symbol):
    """Human form, descending powers: e.g. 'T^2-3T+2', '0'."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = symbol if k == 1 else "%s^%d" % (symbol, k)
            body = var if mag == 1 else "%d%s" % (mag, var)
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


def proj_class(d):
    """Class of d-dimensional projective space: sum_{k=0}^{d} L^k.

    d = -1 is allowed and gives the zero class (the empty space).
    """
    total = MotClass.zero()
    for k in range(_check_int("projective dimension", d, -1) + 1):
        total = total + MotClass.lefschetz(k)
    return total


def blowup_class(x, y, codim):
    """Class of the blowup of x along a center of class y and codimension codim.

    Returns x + y * (proj_class(codim - 1) - 1); codim = 1 leaves x unchanged.
    """
    return x + y * (proj_class(_check_int("codimension", codim, 1) - 1) - MotClass.one())


def expand_falling(m):
    """Product of the m factors (T - 1)(T - 2)...(T - m); m = 0 gives 1."""
    out = MotClass.one()
    for j in range(1, _check_int("factor count", m, 0) + 1):
        out = out * MotClass((-j, 1))
    return out


def signed_stirling1(m):
    """Row m of the signed Stirling numbers of the first kind, s(m, 0..m).

    These satisfy x(x-1)...(x-m+1) = sum_k s(m,k) x^k; the unsigned value
    |s(m,k)| counts permutations of m elements with k cycles.
    """
    row = [1]
    for i in range(_check_int("m", m, 0)):
        # times (x - i): the row shifted up one degree, less i times the row
        row = list(map(lambda a, b: a - i * b, [0, *row], [*row, 0]))
    return tuple(row)


def expand_falling_stirling(m):
    """Same value as expand_falling(m), via the Stirling-number route.

    Writes (T-1)(T-2)...(T-m) = sum_k s(m,k) (T-1)^k with s the signed
    Stirling numbers of the first kind, and expands that by one Taylor
    shift: it is the polynomial sum_k s(m,k) x^k at x = T - 1.  Must agree
    exactly with the direct product.
    """
    return MotClass(_linear_shift(signed_stirling1(m), -1))
