"""Generator indices, nesting complex, three-term relations, and crossed products.

Generators x_I are indexed by subsets of {1..n}: the canonical representative
of a two-sided split contains 1 and has at least two elements on each side.
An index is stored as the bitmask of that canonical side (bit m for member
m), and every split rule -- nesting, covering, separation -- reads the mask.
Monomials over these generators may carry a power of f = prod_I x_I in the
denominator (localization bookkeeping); relations are unordered sums of
monomials on each side.

Each n up to _TABLE_MAX_N keeps one table of its indices (``_table``): the
indices in sort-key order, and a map from the mask of either side of a split
to its rank, the position of its index in that order.  ``index_set`` hands
out those interned objects, and ``perm_action`` relabels by mapping each
mask through the bits of the permutation and looking up the image's rank,
which both orders the result and names its interned index, so no index is
rebuilt and no image is complemented.
Values whose exponents come out already canonical (a tuple of (index, e)
pairs in index sort-key order, no repeated index, positive ints, one n) are
assembled by ``Monomial._new``, which checks nothing; ``Monomial.__init__``
stays the one public path and the one place where repeated indices merge.

Permutations of {1..n} are stored as tuples p of plain ints with p[i-1] the
image of i.  Relabeling a generator index re-canonicalizes by
complementation, which is why a quadruple's three separation patterns may
trade places under the action; relation sets are compared accordingly.
"""

from itertools import combinations, permutations as iter_permutations
import operator

from .motive import _Frozen, _check_int, _check_kind


def _full_mask(n):
    """Mask of {1..n}."""
    return (1 << (n + 1)) - 2


_PAIRS = "two disjoint pairs of distinct markings in 1..n"
_PAIR_ERROR = "pairs must be " + _PAIRS


def _pair_masks(n, pair_a, pair_b):
    """Masks of two disjoint pairs of distinct markings in 1..n."""
    try:
        (i, j), (k, l) = pair_a, pair_b
    except (TypeError, ValueError):
        raise ValueError(_PAIR_ERROR) from None
    i, j, k, l = (_check_int("pairs", m, 1, _PAIRS, n) for m in (i, j, k, l))
    if len({i, j, k, l}) < 4:
        raise ValueError(_PAIR_ERROR)
    return 1 << i | 1 << j, 1 << k | 1 << l


class SubsetIndex(_Frozen):
    """Canonical split index: I subset of {1..n}, 1 in I, 2 <= |I| <= n-2."""

    __slots__ = ("n", "mask", "_key", "_str")

    def __init__(self, n, members):
        n = _check_int("n", n, 4)
        mask = 0
        for m in _check_kind("members", members, object, "an iterable of markings", each=True):
            mask |= 1 << _check_int("members", m, 1, high=n, message="members must lie in 1..n")
        if not mask & 2:
            mask ^= _full_mask(n)
        side = tuple(m for m in range(1, n + 1) if mask >> m & 1)
        if not 2 <= len(side) <= n - 2:
            raise ValueError("split must have at least two elements on each side")
        self._fill(n, mask, (len(side), side), "{%s}" % ",".join(map(str, side)))

    @property
    def members(self):
        return frozenset(self._key[1])

    def sort_key(self):
        return self._key

    def separates(self, pair_a, pair_b):
        """True iff the split puts pair_a on one side and pair_b on the other."""
        a, b = _pair_masks(self.n, pair_a, pair_b)
        return self.mask & (a | b) in (a, b)

    def _args(self):
        return self.n, self._key[1]

    def __repr__(self):
        return "SubsetIndex(%d, %r)" % (self.n, list(self._key[1]))

    def __str__(self):
        return self._str


# Tables are kept for n <= 12: 4,007 indices over n = 4..12 (2,035 at n = 12),
# about 1.7 MB in all, half of it for n = 12.  A larger n builds its table on
# each call.
_TABLE_MAX_N = 12
_TABLES = {}


def _table(n):
    """(indices in sort-key order, mask of either side -> rank) for n markings."""
    n = _check_int("n", n, 4)
    table = _TABLES.get(n)
    if table is None:
        rest = range(2, n + 1)
        # combinations by ascending size come out in sort-key order
        indices = tuple(SubsetIndex(n, (1,) + extra) for k in range(1, n - 2) for extra in combinations(rest, k))
        full = _full_mask(n)
        rank = {i.mask: r for r, i in enumerate(indices)}
        rank.update({full ^ mask: r for mask, r in rank.items()})
        table = indices, rank
        if n <= _TABLE_MAX_N:
            _TABLES[n] = table
    return table


def index_set(n):
    """All canonical indices for n markings, sorted; 2^(n-1) - n - 1 of them."""
    return list(_table(n)[0])


def _compatible(i, j, full):
    """Two index masks are nested or jointly cover full."""
    return i & j in (i, j) or i | j == full


def is_simplex(sigma, n):
    """True iff the indices are pairwise nested or jointly cover {1..n}."""
    full = _full_mask(_check_int("n", n, 4))
    sigma = _check_kind("sigma", sigma, SubsetIndex, "SubsetIndexes", each=True)
    return all(_compatible(a.mask, b.mask, full) for a, b in combinations(sigma, 2))


def count_max_simplexes(n):
    """Number of maximal simplexes of the nesting complex, by exhaustive search.

    Maximal simplexes correspond to trivalent trees, (2n-5)!! of them.
    """
    idx = index_set(n)
    full = _full_mask(n)
    verts = range(len(idx))
    masks = [i.mask for i in idx]
    adj = {v: {w for w in verts if w != v and _compatible(masks[v], masks[w], full)} for v in verts}
    count = 0

    def extend(chosen, candidates, excluded):
        nonlocal count
        if not candidates and not excluded:
            count += 1
            return
        pool = candidates | excluded
        pivot = max(pool, key=lambda v: len(adj[v] & candidates))
        for v in sorted(candidates - adj[pivot]):
            extend(chosen | {v}, candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    extend(frozenset(), set(verts), set())
    return count


class Monomial(_Frozen):
    """Product of generators with an optional f-power denominator."""

    __slots__ = ("n", "exps", "f_denominator")

    def __init__(self, n, exps=(), f_denominator=0):
        n = _check_int("n", n, 4)
        if isinstance(exps, dict):
            exps = exps.items()
        cleaned = {}
        for idx, e in _check_kind("exponents", exps, (tuple, list), "(index, power) pairs", each=True, size=2):
            if _check_kind("exponent keys", idx, SubsetIndex, "SubsetIndexes").n != n:
                raise ValueError("exponent keys must be indices for the same n")
            if _check_int("exponents", e, 0, "nonnegative ints"):
                # keyed by mask, an int, so merging calls no __hash__
                cleaned[idx.mask] = idx, cleaned.get(idx.mask, (idx, 0))[1] + e
        f_denominator = _check_int("denominator power", f_denominator, 0)
        self._fill(n, tuple(sorted(cleaned.values(), key=lambda p: p[0]._key)), f_denominator)

    def __mul__(self, other):
        if _check_kind("factors", other, Monomial, "Monomials").n != self.n:
            raise ValueError("cannot multiply monomials over different index sets")
        return Monomial(self.n, self.exps + other.exps, self.f_denominator + other.f_denominator)

    def support(self):
        return [idx for idx, _ in self.exps]

    def sort_key(self):
        return (self.f_denominator, tuple([(idx._key, e) for idx, e in self.exps]))

    def _args(self):
        return self.n, self.exps, self.f_denominator

    def __repr__(self):
        return "Monomial(%d, %r, %d)" % (self.n, self.exps, self.f_denominator)

    def __str__(self):
        if not self.exps:
            body = "1"
        else:
            body = "*".join(["x" + idx._str if e == 1 else "x%s^%d" % (idx._str, e) for idx, e in self.exps])
        if self.f_denominator == 0:
            return body
        if self.f_denominator == 1:
            return body + "/f"
        return "%s/f^%d" % (body, self.f_denominator)

    def to_json(self):
        return {
            "exps": [[list(idx._key[1]), e] for idx, e in self.exps],
            "fpow": self.f_denominator,
        }


def unit_monomial(n):
    return Monomial(n)


def full_product_monomial(n):
    """f = product of every generator; fixed by all relabelings."""
    return Monomial._new(n, tuple((idx, 1) for idx in _table(n)[0]), 0)


class BlueprintRel(_Frozen):
    """Unordered sums of monomials, left side related to right side."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        left, right = (_check_kind("summands", side, Monomial, "Monomials", each=True) for side in (left, right))
        if not left or not right:
            raise ValueError("both sides must be nonempty")
        if any(m.n != left[0].n for m in left + right):
            raise ValueError("summands must live over the same index set")
        self._fill(tuple(sorted(left, key=Monomial.sort_key)), tuple(sorted(right, key=Monomial.sort_key)))

    def monomials(self):
        return self.left + self.right

    def _args(self):
        return self.left, self.right

    def __repr__(self):
        return "BlueprintRel(%r, %r)" % (self.left, self.right)

    def __str__(self):
        return "%s == %s" % (
            " + ".join(str(m) for m in self.left),
            " + ".join(str(m) for m in self.right),
        )

    def to_json(self):
        return {
            "left": [m.to_json() for m in self.left],
            "right": [m.to_json() for m in self.right],
        }


def separation_monomial(n, pair_a, pair_b):
    """Product of x_I over every split separating pair_a from pair_b."""
    indices = _table(n)[0]
    a, b = _pair_masks(n, pair_a, pair_b)
    both = a | b
    return Monomial._new(n, tuple((idx, 1) for idx in indices if idx.mask & both in (a, b)), 0)


def plucker_relations(n):
    """One three-term relation per quadruple i<j<k<l, C(n,4) in total.

    For the quadruple the sides are m(ij|kl) + m(il|jk) == m(ik|jl), the
    right side being the crossing pattern of the sorted quadruple.
    """
    # one (index, 1) pair per split, shared by every relation it enters
    units = [(idx.mask, (idx, 1)) for idx in _table(n)[0]]
    out = []
    for i, j, k, l in combinations(range(1, n + 1), 4):
        bi, bj, bk, bl = 1 << i, 1 << j, 1 << k, 1 << l
        quad = bi | bj | bk | bl
        # a split separates a pattern iff it holds one of the pattern's pairs
        # on its own side
        ij_kl, il_jk, ik_jl = [], [], []
        side_of = {bi | bj: ij_kl, bk | bl: ij_kl, bi | bl: il_jk, bj | bk: il_jk, bi | bk: ik_jl, bj | bl: ik_jl}
        for mask, unit in units:
            side = side_of.get(mask & quad)
            if side is not None:
                side.append(unit)
        ij_kl, il_jk, ik_jl = (Monomial._new(n, tuple(s), 0) for s in (ij_kl, il_jk, ik_jl))
        out.append(BlueprintRel([ij_kl, il_jk], [ik_jl]))
    return out


def localize_relation(rel, k):
    """Raise every monomial's f-denominator by k."""
    return _shifted(_check_kind("relations", rel, BlueprintRel, "BlueprintRels"), _check_int("k", k, 0))


def clear_denominators(rel):
    """Multiply both sides by the largest common f-power and cancel."""
    rel = _check_kind("relations", rel, BlueprintRel, "BlueprintRels")
    return _shifted(rel, -min(m.f_denominator for m in rel.monomials()))


def _shifted(rel, k):
    """The relation with every monomial's f-denominator raised by k."""
    return BlueprintRel(
        [Monomial._new(m.n, m.exps, m.f_denominator + k) for m in rel.left],
        [Monomial._new(m.n, m.exps, m.f_denominator + k) for m in rel.right],
    )


# -- permutations ----------------------------------------------------------


def _check_perm(pi, n):
    """pi as a tuple of plain ints, if it permutes 1..n; a bool counts as its int."""
    try:
        p = tuple(map(operator.index, pi))
    except TypeError:
        p = None
    if p is None or sorted(p) != list(range(1, n + 1)):
        raise ValueError("perm must be a permutation tuple of 1..n")
    return p


def identity_perm(n):
    return tuple(range(1, n + 1))


def compose_perm(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def invert_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def embed_perm(p, n):
    """View a permutation of 1..m as one of 1..n fixing the rest."""
    if len(p) > _check_int("n", n, 0):
        raise ValueError("cannot embed into a smaller set")
    return tuple(p) + tuple(range(len(p) + 1, n + 1))


def perm_action(pi, mono):
    """Relabel every generator index and re-canonicalize by complementation.

    f is fixed, and the set of three-term relations is carried into itself
    up to the induced permutation of separation patterns.  Distinct indices
    have distinct images, so nothing merges.
    """
    return _relabel(_check_perm(pi, _check_kind("mono", mono, Monomial, "a Monomial").n), mono)


def _relabel(pi, mono):
    """perm_action for a permutation already checked against mono.n."""
    n = mono.n
    if n > _TABLE_MAX_N:
        # a table built per call would cost 2^(n-1) indices: build each
        # image from its members
        images = [(SubsetIndex(n, [pi[i - 1] for i in idx._key[1]]), e) for idx, e in mono.exps]
        return Monomial(n, images, mono.f_denominator)
    indices, rank = _table(n)
    bit = ((0,) + tuple(1 << v for v in pi)).__getitem__
    # distinct members have distinct bits, so a sum of bits is their union
    images = sorted([(rank[sum(map(bit, idx._key[1]))], e) for idx, e in mono.exps])
    return Monomial._new(n, tuple([(indices[r], e) for r, e in images]), mono.f_denominator)


def perm_relation(pi, rel):
    rel = _check_kind("relations", rel, BlueprintRel, "BlueprintRels")
    return BlueprintRel([perm_action(pi, m) for m in rel.left], [perm_action(pi, m) for m in rel.right])


def relation_triples(rels):
    """Relations as unordered monomial multisets, for action-invariance checks."""
    rels = _check_kind("relations", rels, BlueprintRel, "BlueprintRels", each=True)
    return {tuple(sorted(r.monomials(), key=Monomial.sort_key)) for r in rels}


# -- centralizer and crossed products ----------------------------------------


def centralizer_subgroup(g):
    """All permutations of 1..2g commuting with (12)(34)...(2g-1 2g).

    Constructed as block permutations combined with within-block swaps;
    there are 2^g g! of them.
    """
    g = _check_int("g", g, 1, high=5)
    base = tuple((i + 1, i + 2) for i in range(0, 2 * g, 2))
    out = []
    for block_perm in iter_permutations(range(g)):
        for flips in range(2**g):
            image = [0] * (2 * g)
            for src in range(g):
                dst = block_perm[src]
                a, b = base[dst]
                if (flips >> src) & 1:
                    a, b = b, a
                image[2 * src] = a
                image[2 * src + 1] = b
            out.append(tuple(image))
    return sorted(out)


class CrossedElem(_Frozen):
    """Formal sum of monomials tagged by one group element."""

    __slots__ = ("n", "summands", "perm", "_body")

    def __init__(self, n, summands, perm):
        n, summands = _check_int("n", n, 4), _check_kind("summands", summands, Monomial, "Monomials", each=True)
        if any(m.n != n for m in summands):
            raise ValueError("summands must live over the same index set")
        summands = tuple(sorted(summands, key=Monomial.sort_key))
        self._fill(n, summands, _check_perm(perm, n), None)

    def _args(self):
        return self.n, self.summands, self.perm

    def __repr__(self):
        return "CrossedElem(%d, %r, %r)" % (self.n, self.summands, self.perm)

    def __str__(self):
        body = _sum_str(self.summands) if self._body is None else self._body
        return "(%s ; [%s])" % (body, ",".join(map(str, self.perm)))

    def to_json(self):
        return {"sum": [m.to_json() for m in self.summands], "perm": list(self.perm)}


def _sum_str(summands):
    return " + ".join(str(m) for m in summands) if summands else "0"


def crossed_identity(n):
    return CrossedElem(n, [unit_monomial(n)], identity_perm(n))


def crossed_mul(x, y):
    """Twisted product (a, g)(a', g') = (a g(a'), g g')."""
    x, y = _check_kind("factors", (x, y), CrossedElem, "CrossedElems", each=True)
    if x.n != y.n:
        raise ValueError("incompatible crossed-product carriers")
    moved = [_relabel(x.perm, b) for b in y.summands]
    summands = [a * b for a in x.summands for b in moved]
    return CrossedElem(x.n, summands, compose_perm(x.perm, y.perm))


def crossed_relations(rels, group):
    """Tag both sides of every relation with every group element.

    Each side keeps its sorted tuple, builds its string once and shares both
    with all of its tagged copies; each group element is checked once per n.
    """
    perms = {}
    out = []
    new = CrossedElem._new
    group = _check_kind("group", group, object, "an iterable of permutations", each=True)
    for rel in _check_kind("relations", rels, BlueprintRel, "BlueprintRels", each=True):
        n = rel.left[0].n
        if n not in perms:
            perms[n] = [_check_perm(g, n) for g in group]
        left, right = _sum_str(rel.left), _sum_str(rel.right)
        for g in perms[n]:
            out.append((new(n, rel.left, g, left), new(n, rel.right, g, right)))
    return out
