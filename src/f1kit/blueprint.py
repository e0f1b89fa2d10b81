"""Generator indices, nesting complex, three-term relations, and crossed products.

Generators x_I are indexed by subsets of {1..n}: the canonical representative
of a two-sided split contains 1 and has at least two elements on each side.
Monomials over these generators may carry a power of f = prod_I x_I in the
denominator (localization bookkeeping); relations are unordered sums of
monomials on each side.

Permutations of {1..n} are stored as tuples p with p[i-1] the image of i.
Relabeling a generator index re-canonicalizes by complementation, which is
why a quadruple's three separation patterns may trade places under the
action; relation sets are compared accordingly.
"""

from itertools import combinations, permutations as iter_permutations


class SubsetIndex:
    """Canonical split index: I subset of {1..n}, 1 in I, 2 <= |I| <= n-2."""

    __slots__ = ("n", "members", "_key", "_str")

    def __init__(self, n, members):
        members = frozenset(members)
        if not isinstance(n, int) or n < 4:
            raise ValueError("n must be an int >= 4")
        if not members <= set(range(1, n + 1)):
            raise ValueError("members must lie in 1..n")
        if 1 not in members:
            members = frozenset(range(1, n + 1)) - members
        if not 2 <= len(members) <= n - 2:
            raise ValueError("split must have at least two elements on each side")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        # sort key and printed form, computed on first use
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_str", None)

    def __setattr__(self, name, value):
        raise AttributeError("SubsetIndex is immutable")

    def complement(self):
        return frozenset(range(1, self.n + 1)) - self.members

    def sort_key(self):
        if self._key is None:
            object.__setattr__(self, "_key", (len(self.members), tuple(sorted(self.members))))
        return self._key

    def separates(self, pair_a, pair_b):
        """True iff the split puts pair_a on one side and pair_b on the other."""
        a, b = frozenset(pair_a), frozenset(pair_b)
        inside, outside = self.members, self.complement()
        return (a <= inside and b <= outside) or (b <= inside and a <= outside)

    def __eq__(self, other):
        if not isinstance(other, SubsetIndex):
            return NotImplemented
        return (self.n, self.members) == (other.n, other.members)

    def __hash__(self):
        return hash((self.n, self.members))

    def __repr__(self):
        return "SubsetIndex(%d, %r)" % (self.n, sorted(self.members))

    def __str__(self):
        if self._str is None:
            object.__setattr__(self, "_str", "{%s}" % ",".join(str(i) for i in self.sort_key()[1]))
        return self._str


def index_set(n):
    """All canonical indices for n markings, sorted; 2^(n-1) - n - 1 of them."""
    if not isinstance(n, int) or n < 4:
        raise ValueError("n must be an int >= 4")
    out = []
    rest = list(range(2, n + 1))
    for k in range(1, n - 2):
        for extra in combinations(rest, k):
            out.append(SubsetIndex(n, frozenset((1,) + extra)))
    return sorted(out, key=SubsetIndex.sort_key)


def _compatible(i, j, full):
    """Two index sets are nested or jointly cover full."""
    return i <= j or j <= i or i | j == full


def is_simplex(sigma, n):
    """True iff the indices are pairwise nested or jointly cover {1..n}."""
    full = frozenset(range(1, n + 1))
    return all(_compatible(a.members, b.members, full) for a, b in combinations(sigma, 2))


def count_max_simplexes(n):
    """Number of maximal simplexes of the nesting complex, by exhaustive search.

    Maximal simplexes correspond to trivalent trees, (2n-5)!! of them.
    """
    idx = index_set(n)
    full = frozenset(range(1, n + 1))
    verts = range(len(idx))
    sets = [i.members for i in idx]
    adj = {v: {w for w in verts if w != v and _compatible(sets[v], sets[w], full)} for v in verts}
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
        merged = dict(self.exps)
        for idx, e in other.exps:
            merged[idx] = merged.get(idx, 0) + e
        return Monomial(self.n, merged, self.f_denominator + other.f_denominator)

    def with_denominator(self, k):
        return Monomial(self.n, self.exps, k)

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
            "exps": [[sorted(idx.members), e] for idx, e in self.exps],
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
    if not isinstance(n, int) or n < 4:
        raise ValueError("n must be an int >= 4")
    splits = [(idx, sum(1 << m for m in idx.members)) for idx in index_set(n)]
    out = []
    for i, j, k, l in combinations(range(1, n + 1), 4):
        bi, bj, bk, bl = 1 << i, 1 << j, 1 << k, 1 << l
        quad = bi | bj | bk | bl
        # a split separates a pattern iff it holds one of the pattern's pairs
        # on its own side: 0 = (ij|kl), 1 = (il|jk), 2 = (ik|jl)
        pattern = {bi | bj: 0, bk | bl: 0, bi | bl: 1, bj | bk: 1, bi | bk: 2, bj | bl: 2}
        sides = ([], [], [])
        for idx, mask in splits:
            p = pattern.get(mask & quad)
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
        [m.with_denominator(m.f_denominator + k) for m in rel.left],
        [m.with_denominator(m.f_denominator + k) for m in rel.right],
    )


# -- permutations ----------------------------------------------------------


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
    if len(pi) != n:
        raise ValueError("permutation length does not match the index size")
    exps = {}
    for idx, e in mono.exps:
        image = SubsetIndex(n, frozenset(pi[i - 1] for i in idx.members))
        exps[image] = exps.get(image, 0) + e
    return Monomial(n, exps, mono.f_denominator)


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
        if len(perm) != n or sorted(perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a permutation tuple of 1..n")
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
