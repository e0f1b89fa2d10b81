"""Generator indices, nesting complex, three-term relations, and crossed products.

Generators x_I are indexed by subsets of {1..n}: the canonical representative
of a two-sided split contains 1 and has at least two elements on each side.
An index is stored as the bitmask of that canonical side (bit m for member
m), and every split rule -- nesting, covering, separation -- reads the mask.
Monomials over these generators may carry a power of f = prod_I x_I in the
denominator (localization bookkeeping); relations are unordered sums of
monomials on each side.

Permutations of {1..n} are stored as tuples p with p[i-1] the image of i.
Relabeling a generator index re-canonicalizes by complementation, which is
why a quadruple's three separation patterns may trade places under the
action; relation sets are compared accordingly.
"""

from itertools import combinations, permutations as iter_permutations


def _full_mask(n):
    """Mask of {1..n}."""
    return (1 << (n + 1)) - 2


class SubsetIndex:
    """Canonical split index: I subset of {1..n}, 1 in I, 2 <= |I| <= n-2."""

    __slots__ = ("n", "mask", "_key", "_str")

    def __init__(self, n, members):
        if not isinstance(n, int) or n < 4:
            raise ValueError("n must be an int >= 4")
        mask = 0
        for m in members:
            if not isinstance(m, int) or not 1 <= m <= n:
                raise ValueError("members must lie in 1..n")
            mask |= 1 << m
        if not mask & 2:
            mask ^= _full_mask(n)
        side = tuple(m for m in range(1, n + 1) if mask >> m & 1)
        if not 2 <= len(side) <= n - 2:
            raise ValueError("split must have at least two elements on each side")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_key", (len(side), side))
        object.__setattr__(self, "_str", "{%s}" % ",".join(map(str, side)))

    def __setattr__(self, name, value):
        raise AttributeError("SubsetIndex is immutable")

    @property
    def members(self):
        return frozenset(self._key[1])

    def sort_key(self):
        return self._key

    def separates(self, pair_a, pair_b):
        """True iff the split puts pair_a on one side and pair_b on the other."""
        a, b = (sum({1 << m for m in pair}) for pair in (pair_a, pair_b))
        inside, outside = self.mask, _full_mask(self.n) ^ self.mask
        return (a & inside == a and b & outside == b) or (b & inside == b and a & outside == a)

    def __eq__(self, other):
        if not isinstance(other, SubsetIndex):
            return NotImplemented
        return (self.n, self.mask) == (other.n, other.mask)

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return "SubsetIndex(%d, %r)" % (self.n, list(self._key[1]))

    def __str__(self):
        return self._str


def index_set(n):
    """All canonical indices for n markings, sorted; 2^(n-1) - n - 1 of them."""
    if not isinstance(n, int) or n < 4:
        raise ValueError("n must be an int >= 4")
    rest = range(2, n + 1)
    # combinations by ascending size come out in sort-key order
    return [SubsetIndex(n, (1,) + extra) for k in range(1, n - 2) for extra in combinations(rest, k)]


def _compatible(i, j, full):
    """Two index masks are nested or jointly cover full."""
    return i & j in (i, j) or i | j == full


def is_simplex(sigma, n):
    """True iff the indices are pairwise nested or jointly cover {1..n}."""
    full = _full_mask(n)
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


class Monomial:
    """Product of generators with an optional f-power denominator."""

    __slots__ = ("n", "exps", "f_denominator")

    def __init__(self, n, exps=(), f_denominator=0):
        if not isinstance(n, int) or n < 4:
            raise ValueError("n must be an int >= 4")
        if isinstance(exps, dict):
            exps = exps.items()
        cleaned = {}
        for idx, e in exps:
            if not isinstance(idx, SubsetIndex) or idx.n != n:
                raise ValueError("exponent keys must be indices for the same n")
            if not isinstance(e, int) or e < 0:
                raise ValueError("exponents must be nonnegative ints")
            if e:
                cleaned[idx] = cleaned.get(idx, 0) + e
        if not isinstance(f_denominator, int) or f_denominator < 0:
            raise ValueError("denominator power must be a nonnegative int")
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "exps", tuple(sorted(cleaned.items(), key=lambda p: p[0].sort_key()))
        )
        object.__setattr__(self, "f_denominator", f_denominator)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __mul__(self, other):
        if not isinstance(other, Monomial) or other.n != self.n:
            raise ValueError("cannot multiply monomials over different index sets")
        return Monomial(self.n, self.exps + other.exps, self.f_denominator + other.f_denominator)

    def support(self):
        return [idx for idx, _ in self.exps]

    def sort_key(self):
        return (self.f_denominator, tuple((idx.sort_key(), e) for idx, e in self.exps))

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return (self.n, self.exps, self.f_denominator) == (other.n, other.exps, other.f_denominator)

    def __hash__(self):
        return hash((self.n, self.exps, self.f_denominator))

    def __repr__(self):
        return "Monomial(%d, %r, %d)" % (self.n, self.exps, self.f_denominator)

    def __str__(self):
        if not self.exps:
            body = "1"
        else:
            parts = []
            for idx, e in self.exps:
                parts.append("x%s" % idx if e == 1 else "x%s^%d" % (idx, e))
            body = "*".join(parts)
        if self.f_denominator == 0:
            return body
        if self.f_denominator == 1:
            return body + "/f"
        return "%s/f^%d" % (body, self.f_denominator)

    def to_json(self):
        return {
            "exps": [[list(idx.sort_key()[1]), e] for idx, e in self.exps],
            "fpow": self.f_denominator,
        }


def unit_monomial(n):
    return Monomial(n)


def full_product_monomial(n):
    """f = product of every generator; fixed by all relabelings."""
    return Monomial(n, {idx: 1 for idx in index_set(n)})


class BlueprintRel:
    """Unordered sums of monomials, left side related to right side."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        left = tuple(sorted(left, key=Monomial.sort_key))
        right = tuple(sorted(right, key=Monomial.sort_key))
        if not left or not right:
            raise ValueError("both sides must be nonempty")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("BlueprintRel is immutable")

    def monomials(self):
        return self.left + self.right

    def __eq__(self, other):
        if not isinstance(other, BlueprintRel):
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))

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
    exps = {idx: 1 for idx in index_set(n) if idx.separates(pair_a, pair_b)}
    return Monomial(n, exps)


def plucker_relations(n):
    """One three-term relation per quadruple i<j<k<l, C(n,4) in total.

    For the quadruple the sides are m(ij|kl) + m(il|jk) == m(ik|jl), the
    right side being the crossing pattern of the sorted quadruple.
    """
    splits = index_set(n)
    out = []
    for i, j, k, l in combinations(range(1, n + 1), 4):
        bi, bj, bk, bl = 1 << i, 1 << j, 1 << k, 1 << l
        quad = bi | bj | bk | bl
        # a split separates a pattern iff it holds one of the pattern's pairs
        # on its own side: 0 = (ij|kl), 1 = (il|jk), 2 = (ik|jl)
        pattern = {bi | bj: 0, bk | bl: 0, bi | bl: 1, bj | bk: 1, bi | bk: 2, bj | bl: 2}
        sides = ([], [], [])
        for idx in splits:
            p = pattern.get(idx.mask & quad)
            if p is not None:
                sides[p].append((idx, 1))
        ij_kl, il_jk, ik_jl = (Monomial(n, s) for s in sides)
        out.append(BlueprintRel([ij_kl, il_jk], [ik_jl]))
    return out


def localize_relation(rel, k):
    """Raise every monomial's f-denominator by k."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a nonnegative int")
    return _shifted(rel, k)


def clear_denominators(rel):
    """Multiply both sides by the largest common f-power and cancel."""
    return _shifted(rel, -min(m.f_denominator for m in rel.monomials()))


def _shifted(rel, k):
    """The relation with every monomial's f-denominator raised by k."""
    return BlueprintRel(
        [Monomial(m.n, m.exps, m.f_denominator + k) for m in rel.left],
        [Monomial(m.n, m.exps, m.f_denominator + k) for m in rel.right],
    )


# -- permutations ----------------------------------------------------------


def _check_perm(pi, n):
    if len(pi) != n or sorted(pi) != list(range(1, n + 1)):
        raise ValueError("perm must be a permutation tuple of 1..n")


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
    if len(p) > n:
        raise ValueError("cannot embed into a smaller set")
    return tuple(p) + tuple(range(len(p) + 1, n + 1))


def perm_action(pi, mono):
    """Relabel every generator index and re-canonicalize by complementation.

    f is fixed, and the set of three-term relations is carried into itself
    up to the induced permutation of separation patterns.
    """
    n = mono.n
    _check_perm(pi, n)
    images = [(SubsetIndex(n, [pi[i - 1] for i in idx.sort_key()[1]]), e) for idx, e in mono.exps]
    return Monomial(n, images, mono.f_denominator)


def perm_relation(pi, rel):
    return BlueprintRel([perm_action(pi, m) for m in rel.left], [perm_action(pi, m) for m in rel.right])


def relation_triples(rels):
    """Relations as unordered monomial multisets, for action-invariance checks."""
    return {tuple(sorted(r.monomials(), key=Monomial.sort_key)) for r in rels}


# -- centralizer and crossed products ----------------------------------------


def centralizer_subgroup(g):
    """All permutations of 1..2g commuting with (12)(34)...(2g-1 2g).

    Constructed as block permutations combined with within-block swaps;
    there are 2^g g! of them.
    """
    if not isinstance(g, int) or not 1 <= g <= 5:
        raise ValueError("g must be an int in 1..5")
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


class CrossedElem:
    """Formal sum of monomials tagged by one group element."""

    __slots__ = ("n", "summands", "perm")

    def __init__(self, n, summands, perm):
        summands = tuple(sorted(summands, key=Monomial.sort_key))
        for m in summands:
            if m.n != n:
                raise ValueError("summands must live over the same index set")
        _check_perm(perm, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "perm", tuple(perm))

    def __setattr__(self, name, value):
        raise AttributeError("CrossedElem is immutable")

    def __eq__(self, other):
        if not isinstance(other, CrossedElem):
            return NotImplemented
        return (self.n, self.summands, self.perm) == (other.n, other.summands, other.perm)

    def __hash__(self):
        return hash((self.n, self.summands, self.perm))

    def __repr__(self):
        return "CrossedElem(%d, %r, %r)" % (self.n, self.summands, self.perm)

    def __str__(self):
        body = " + ".join(str(m) for m in self.summands) if self.summands else "0"
        return "(%s ; [%s])" % (body, ",".join(str(v) for v in self.perm))

    def to_json(self):
        return {"sum": [m.to_json() for m in self.summands], "perm": list(self.perm)}


def crossed_identity(n):
    return CrossedElem(n, [unit_monomial(n)], identity_perm(n))


def crossed_mul(x, y):
    """Twisted product (a, g)(a', g') = (a g(a'), g g')."""
    if not isinstance(x, CrossedElem) or not isinstance(y, CrossedElem) or x.n != y.n:
        raise ValueError("incompatible crossed-product carriers")
    summands = [a * perm_action(x.perm, b) for a in x.summands for b in y.summands]
    return CrossedElem(x.n, summands, compose_perm(x.perm, y.perm))


def crossed_relations(rels, group):
    """Tag both sides of every relation with every group element."""
    out = []
    for rel in rels:
        for g in group:
            n = rel.left[0].n
            out.append((CrossedElem(n, rel.left, g), CrossedElem(n, rel.right, g)))
    return out
