import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from f1kit.blueprint import (
    BlueprintRel,
    CrossedElem,
    Monomial,
    SubsetIndex,
    centralizer_subgroup,
    clear_denominators,
    compose_perm,
    count_max_simplexes,
    crossed_identity,
    crossed_mul,
    crossed_relations,
    embed_perm,
    full_product_monomial,
    identity_perm,
    index_set,
    invert_perm,
    is_simplex,
    localize_relation,
    perm_action,
    perm_relation,
    plucker_relations,
    relation_triples,
    separation_monomial,
    unit_monomial,
)


def idx(n, *members):
    return SubsetIndex(n, frozenset(members))


class TestIndexSet:
    def test_canonicalization_by_complement(self):
        assert idx(5, 3, 4, 5) == idx(5, 1, 2)
        assert idx(5, 2, 3) == SubsetIndex(5, {1, 4, 5})

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            SubsetIndex(5, {1})
        with pytest.raises(ValueError):
            SubsetIndex(5, {1, 2, 3, 4})

    @pytest.mark.parametrize("n", range(4, 11))
    def test_count(self, n):
        assert len(index_set(n)) == 2 ** (n - 1) - n - 1

    def test_n4(self):
        assert [str(i) for i in index_set(4)] == ["{1,2}", "{1,3}", "{1,4}"]

    def test_n5(self):
        got = [tuple(sorted(i.members)) for i in index_set(5)]
        assert got == [
            (1, 2), (1, 3), (1, 4), (1, 5),
            (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5),
        ]


class TestSimplex:
    def test_nested(self):
        assert is_simplex([idx(5, 1, 2), idx(5, 1, 2, 3)], 5)

    def test_incompatible(self):
        assert not is_simplex([idx(5, 1, 2), idx(5, 1, 3)], 5)

    def test_covering_union(self):
        assert is_simplex([idx(5, 1, 2, 3), idx(5, 1, 4, 5)], 5)

    def test_singletons(self):
        assert is_simplex([idx(5, 1, 2)], 5)
        assert is_simplex([], 5)

    @pytest.mark.parametrize("n,want", [(4, 3), (5, 15), (6, 105)])
    def test_max_simplex_count(self, n, want):
        assert count_max_simplexes(n) == want


class TestPluckerRelations:
    def test_n4(self):
        rels = plucker_relations(4)
        assert len(rels) == 1
        assert str(rels[0]) == "x{1,2} + x{1,4} == x{1,3}"

    def test_n5_first_quadruple(self):
        rel = plucker_relations(5)[0]
        assert str(rel) == "x{1,2}*x{1,2,5} + x{1,4}*x{1,4,5} == x{1,3}*x{1,3,5}"

    def test_n5_quadruple_without_1(self):
        rel = plucker_relations(5)[-1]  # quadruple (2,3,4,5)
        want = BlueprintRel(
            [
                Monomial(5, {idx(5, 1, 2, 3): 1, idx(5, 1, 4, 5): 1}),
                Monomial(5, {idx(5, 1, 2, 5): 1, idx(5, 1, 3, 4): 1}),
            ],
            [Monomial(5, {idx(5, 1, 2, 4): 1, idx(5, 1, 3, 5): 1})],
        )
        assert rel == want

    @pytest.mark.parametrize("n", range(4, 9))
    def test_count(self, n):
        assert len(plucker_relations(n)) == comb(n, 4)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_three_monomials(self, n):
        for rel in plucker_relations(n):
            assert len(rel.left) == 2
            assert len(rel.right) == 1

    @pytest.mark.parametrize("n", [4, 5])
    def test_supports_are_simplexes(self, n):
        # separating splits of a fixed pattern are pairwise compatible for
        # these sizes; from six markings on, patterns acquire incompatible
        # separators and only the separation property itself survives
        for rel in plucker_relations(n):
            for m in rel.monomials():
                assert is_simplex(m.support(), n)

    def test_separation_is_complement_symmetric(self):
        m1 = separation_monomial(5, (2, 3), (4, 5))
        m2 = separation_monomial(5, (4, 5), (2, 3))
        assert m1 == m2

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_separation_oracle(self, n):
        # the one-pass build against one separation_monomial per pattern
        want = [
            BlueprintRel(
                [separation_monomial(n, (i, j), (k, l)), separation_monomial(n, (i, l), (j, k))],
                [separation_monomial(n, (i, k), (j, l))],
            )
            for i, j, k, l in combinations(range(1, n + 1), 4)
        ]
        got = plucker_relations(n)
        assert got == want
        assert [str(r) for r in got] == [str(r) for r in want]


class TestLocalization:
    def test_k0_is_identity(self):
        rel = plucker_relations(4)[0]
        assert localize_relation(rel, 0) == rel

    def test_round_trip(self):
        rel = plucker_relations(5)[2]
        assert clear_denominators(localize_relation(rel, 1)) == rel
        assert clear_denominators(localize_relation(rel, 3)) == rel

    @pytest.mark.parametrize("call", [
        lambda: localize_relation(5, 1),
        lambda: localize_relation(plucker_relations(4)[0].left[0], 1),
        lambda: clear_denominators(5),
        lambda: clear_denominators(None),
        lambda: crossed_relations([5], [(1, 2)]),
        lambda: crossed_relations([plucker_relations(4)[0], "rel"], [identity_perm(4)]),
    ])
    def test_a_relation_must_be_a_relation(self, call):
        with pytest.raises(TypeError, match="^relations must be BlueprintRels$"):
            call()

    def test_all_monomials_carry_denominator(self):
        rel = localize_relation(plucker_relations(4)[0], 1)
        assert all(m.f_denominator == 1 for m in rel.monomials())
        assert str(rel) == "x{1,2}/f + x{1,4}/f == x{1,3}/f"


class TestPermAction:
    def test_identity(self):
        m = Monomial(5, {idx(5, 1, 2): 2}, 1)
        assert perm_action(identity_perm(5), m) == m

    def test_fixes_full_product(self):
        for n in (4, 5, 6):
            f = full_product_monomial(n)
            for pi in permutations(range(1, n + 1)):
                if n == 6 and pi[0] != 1:
                    continue  # sample for speed at n = 6; full sweep in acceptance
                assert perm_action(pi, f) == f

    def test_swap_45_maps_relations(self):
        rels = plucker_relations(5)
        rel_1234 = rels[0]
        rel_1235 = rels[1]
        got = perm_relation((1, 2, 3, 5, 4), rel_1234)
        assert got == rel_1235

    @pytest.mark.parametrize("n", [4, 5])
    def test_relation_set_closed(self, n):
        rels = plucker_relations(n)
        triples = relation_triples(rels)
        for pi in permutations(range(1, n + 1)):
            mapped = [perm_relation(pi, r) for r in rels]
            assert relation_triples(mapped) == triples

    def test_sides_can_trade_places(self):
        # transposing the middle pair of a quadruple exchanges a left
        # pattern with the crossing pattern, so sides are compared as
        # unordered triples
        rels = plucker_relations(4)
        got = perm_relation((1, 3, 2, 4), rels[0])
        assert relation_triples([got]) == relation_triples(rels)
        assert got != rels[0]


class TestCentralizer:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_order(self, g):
        assert len(centralizer_subgroup(g)) == 2**g * factorial(g)

    def test_g1(self):
        assert centralizer_subgroup(1) == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_matches_brute_force(self, g):
        sigma = tuple(i + 1 if i % 2 == 1 else i - 1 for i in range(1, 2 * g + 1))
        brute = sorted(
            p for p in permutations(range(1, 2 * g + 1)) if compose_perm(p, sigma) == compose_perm(sigma, p)
        )
        assert centralizer_subgroup(g) == brute

    def test_group_closure(self):
        group = set(centralizer_subgroup(2))
        for p in group:
            assert invert_perm(p) in group
            for q in group:
                assert compose_perm(p, q) in group

    def test_range(self):
        with pytest.raises(ValueError):
            centralizer_subgroup(0)
        with pytest.raises(ValueError):
            centralizer_subgroup(6)


class TestCrossedProduct:
    def test_untwisted(self):
        m1 = Monomial(5, {idx(5, 1, 2): 1})
        m2 = Monomial(5, {idx(5, 1, 3): 1})
        e = identity_perm(5)
        got = crossed_mul(CrossedElem(5, [m1], e), CrossedElem(5, [m2], e))
        assert got == CrossedElem(5, [m1 * m2], e)

    def test_conjugation_computes_action(self):
        m = Monomial(5, {idx(5, 1, 2): 1})
        g = (1, 2, 3, 5, 4)
        x = crossed_mul(
            crossed_mul(CrossedElem(5, [unit_monomial(5)], g), CrossedElem(5, [m], identity_perm(5))),
            CrossedElem(5, [unit_monomial(5)], invert_perm(g)),
        )
        assert x == CrossedElem(5, [perm_action(g, m)], identity_perm(5))

    def test_identity_element(self):
        m = Monomial(5, {idx(5, 1, 4): 2})
        x = CrossedElem(5, [m], (2, 1, 3, 4, 5))
        e = crossed_identity(5)
        assert crossed_mul(e, x) == x
        assert crossed_mul(x, e) == x

    def test_associativity_sampled(self):
        rng = random.Random(11)
        gens = index_set(5)
        group = [embed_perm(p, 5) for p in centralizer_subgroup(2)]

        def rand_elem():
            k = rng.randint(0, 2)
            summands = [
                Monomial(5, {rng.choice(gens): rng.randint(1, 2)}) for _ in range(k)
            ] or [unit_monomial(5)]
            return CrossedElem(5, summands, rng.choice(group))

        for _ in range(300):
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert crossed_mul(crossed_mul(x, y), z) == crossed_mul(x, crossed_mul(y, z))

    def test_incompatible_carriers(self):
        with pytest.raises(ValueError):
            crossed_mul(crossed_identity(5), crossed_identity(6))


class TestCrossedRelations:
    def test_trivial_group(self):
        rels = plucker_relations(5)
        pairs = crossed_relations(rels, [identity_perm(5)])
        assert len(pairs) == len(rels)
        for (a, b), rel in zip(pairs, rels):
            assert a.summands == rel.left
            assert b.summands == rel.right
            assert a.perm == b.perm == identity_perm(5)

    def test_two_element_group(self):
        rels = plucker_relations(5)
        group = [identity_perm(5), (2, 1, 3, 4, 5)]
        assert len(crossed_relations(rels, group)) == 10

    def test_boundary_model_count(self):
        g = 2
        n = 6
        group = [embed_perm(p, n) for p in centralizer_subgroup(g)]
        pairs = crossed_relations(plucker_relations(n), group)
        assert len(pairs) == comb(n, 4) * 2**g * factorial(g)


# -- frozenset oracles: the split rules as first written on member sets -------


def oracle_members(n, members):
    members = frozenset(members)
    if not members <= set(range(1, n + 1)):
        raise ValueError("members must lie in 1..n")
    if 1 not in members:
        members = frozenset(range(1, n + 1)) - members
    if not 2 <= len(members) <= n - 2:
        raise ValueError("split must have at least two elements on each side")
    return members


def oracle_sort_key(members):
    return (len(members), tuple(sorted(members)))


def oracle_str(members):
    return "{%s}" % ",".join(str(i) for i in oracle_sort_key(members)[1])


def oracle_repr(n, members):
    return "SubsetIndex(%d, %r)" % (n, sorted(members))


def oracle_separates(n, members, pair_a, pair_b):
    a, b = frozenset(pair_a), frozenset(pair_b)
    inside, outside = members, frozenset(range(1, n + 1)) - members
    return (a <= inside and b <= outside) or (b <= inside and a <= outside)


def oracle_compatible(i, j, full):
    return i <= j or j <= i or i | j == full


def oracle_perm_action(n, pi, mono):
    """(members, exponent) pairs in sort-key order, and the f-power."""
    exps = {}
    for index, e in mono.exps:
        image = oracle_members(n, frozenset(pi[i - 1] for i in index.members))
        exps[image] = exps.get(image, 0) + e
    return sorted(exps.items(), key=lambda p: oracle_sort_key(p[0])), mono.f_denominator


@st.composite
def split_cases(draw):
    n = draw(st.integers(4, 10))
    member = st.one_of(st.integers(1, n), st.integers(-2, n + 3))
    return n, draw(st.lists(member, max_size=n + 2))


class TestMatchesFrozensetOracle:
    @settings(max_examples=300, deadline=None)
    @given(split_cases(), st.data())
    def test_index_rules(self, case, data):
        n, members = case
        try:
            want = oracle_members(n, members)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                SubsetIndex(n, members)
            assert str(err.value) == str(exc)
            return
        got = SubsetIndex(n, members)
        assert got.members == want
        assert got.sort_key() == oracle_sort_key(want)
        assert str(got) == oracle_str(want)
        assert repr(got) == oracle_repr(n, want)
        other_side = SubsetIndex(n, set(range(1, n + 1)) - set(members))
        assert other_side == got
        assert hash(other_side) == hash(got)
        quad = data.draw(st.permutations(range(1, n + 1)))[:4]
        pair_a, pair_b = quad[:2], quad[2:]
        assert got.separates(pair_a, pair_b) == oracle_separates(n, want, pair_a, pair_b)
        second = data.draw(st.sampled_from(index_set(n)))
        full = frozenset(range(1, n + 1))
        assert is_simplex([got, second], n) == oracle_compatible(want, second.members, full)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(4, 10).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.sampled_from(index_set(n)), st.integers(1, 3)), max_size=4),
        st.integers(0, 2),
        st.permutations(range(1, n + 1)),
    )))
    def test_perm_action_image(self, case):
        n, exps, fpow, pi = case
        mono = Monomial(n, exps, fpow)
        got = perm_action(tuple(pi), mono)
        want_exps, want_fpow = oracle_perm_action(n, pi, mono)
        assert [(index.members, e) for index, e in got.exps] == want_exps
        assert got.f_denominator == want_fpow

    @pytest.mark.parametrize("n", range(4, 13))
    def test_index_set_is_in_sort_key_order(self, n):
        assert index_set(n) == sorted(index_set(n), key=SubsetIndex.sort_key)


class TestInputChecks:
    @pytest.mark.parametrize(
        "pi,mono",
        [
            ((1, 2, 2, 4, 5, 6), Monomial(6, {SubsetIndex(6, {1, 2, 3}): 1})),
            ((1, 1, 1, 1, 1), Monomial(5)),
            ((1, 2, 3, 4), Monomial(5)),
        ],
    )
    def test_perm_action_refuses_non_permutations(self, pi, mono):
        with pytest.raises(ValueError, match=r"^perm must be a permutation tuple of 1\.\.n$"):
            perm_action(pi, mono)

    @pytest.mark.parametrize("member", [2.0, "2"])
    def test_members_must_be_ints(self, member):
        with pytest.raises(ValueError, match=r"^members must lie in 1\.\.n$"):
            SubsetIndex(5, {1, member})

    def test_bool_member_counts_as_its_int(self):
        index = SubsetIndex(5, {True, 3})
        assert index == SubsetIndex(5, {1, 3})
        assert str(index) == "{1,3}"
        assert repr(index) == "SubsetIndex(5, [1, 3])"
        assert str(Monomial(5, {index: 1})) == "x{1,3}"

    @pytest.mark.parametrize("n", ["x", 3, 4.0])
    def test_monomial_checks_n(self, n):
        with pytest.raises(ValueError, match=r"^n must be an int >= 4$"):
            Monomial(n)

    @pytest.mark.parametrize("left,right", [([Monomial(5)], [Monomial(6)]), (["x"], ["y"]), ([Monomial(5)], ["y"])])
    def test_relation_sides_are_monomials_of_one_n(self, left, right):
        # a wrong kind is a TypeError, a mismatched n a ValueError
        if all(isinstance(m, Monomial) for m in left + right):
            error, message = ValueError, "summands must live over the same index set"
        else:
            error, message = TypeError, "summands must be Monomials"
        with pytest.raises(error, match="^%s$" % message):
            BlueprintRel(left, right)

    def test_perm_relation_needs_a_relation(self):
        with pytest.raises(TypeError, match=r"^relations must be BlueprintRels$"):
            perm_relation(identity_perm(5), "x")

    def test_relation_triples_needs_relations(self):
        with pytest.raises(TypeError, match=r"^relations must be BlueprintRels$"):
            relation_triples(plucker_relations(5)[:1] + ["x"])


# -- relabeling oracles: perm_action, plucker_relations and crossed_relations
# as they were before the interned index table, built only from public
# constructors --------------------------------------------------------------


def parent_index_set(n):
    rest = range(2, n + 1)
    return [SubsetIndex(n, (1,) + extra) for k in range(1, n - 2) for extra in combinations(rest, k)]


def parent_perm_action(pi, mono):
    n = mono.n
    if len(pi) != n or sorted(pi) != list(range(1, n + 1)):
        raise ValueError("perm must be a permutation tuple of 1..n")
    images = [(SubsetIndex(n, [pi[i - 1] for i in index.sort_key()[1]]), e) for index, e in mono.exps]
    return Monomial(n, images, mono.f_denominator)


def parent_plucker_relations(n):
    splits = parent_index_set(n)
    out = []
    for i, j, k, l in combinations(range(1, n + 1), 4):
        bi, bj, bk, bl = 1 << i, 1 << j, 1 << k, 1 << l
        quad = bi | bj | bk | bl
        pattern = {bi | bj: 0, bk | bl: 0, bi | bl: 1, bj | bk: 1, bi | bk: 2, bj | bl: 2}
        sides = ([], [], [])
        for index in splits:
            p = pattern.get(index.mask & quad)
            if p is not None:
                sides[p].append((index, 1))
        ij_kl, il_jk, ik_jl = (Monomial(n, s) for s in sides)
        out.append(BlueprintRel([ij_kl, il_jk], [ik_jl]))
    return out


def parent_crossed_relations(rels, group):
    out = []
    for rel in rels:
        for g in group:
            n = rel.left[0].n
            out.append((CrossedElem(n, rel.left, g), CrossedElem(n, rel.right, g)))
    return out


def parent_shifted(rel, k):
    return BlueprintRel(
        [Monomial(m.n, m.exps, m.f_denominator + k) for m in rel.left],
        [Monomial(m.n, m.exps, m.f_denominator + k) for m in rel.right],
    )


def assert_same_monomial(got, want):
    assert got.exps == want.exps
    assert got == want
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert repr(got) == repr(want)
    assert got.sort_key() == want.sort_key()
    assert got.to_json() == want.to_json()


def assert_same_relation(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert repr(got) == repr(want)
    for a, b in zip(got.monomials(), want.monomials(), strict=True):
        assert_same_monomial(a, b)


def assert_same_crossed(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert repr(got) == repr(want)
    assert got.perm == want.perm
    assert got.to_json() == want.to_json()
    for a, b in zip(got.summands, want.summands, strict=True):
        assert_same_monomial(a, b)


@st.composite
def monomials(draw, n, max_size=6):
    """Monomials over n markings, f-powers and repeated indices included."""
    support = st.sampled_from(parent_index_set(n))
    exps = draw(st.lists(st.tuples(support, st.integers(0, 3)), max_size=max_size))
    return Monomial(n, exps, draw(st.integers(0, 3)))


@st.composite
def relabel_cases(draw, low=4, high=9):
    n = draw(st.integers(low, high))
    return n, tuple(draw(st.permutations(range(1, n + 1)))), draw(monomials(n))


class TestRelabelOracles:
    @settings(max_examples=300, deadline=None)
    @given(relabel_cases())
    def test_perm_action(self, case):
        n, pi, mono = case
        assert_same_monomial(perm_action(pi, mono), parent_perm_action(pi, mono))

    @settings(max_examples=10, deadline=None)
    @given(relabel_cases(13, 14))
    def test_perm_action_beyond_the_table(self, case):
        n, pi, mono = case
        assert_same_monomial(perm_action(pi, mono), parent_perm_action(pi, mono))

    @pytest.mark.parametrize("n", range(4, 8))
    def test_perm_action_fixes_full_product(self, n):
        f = full_product_monomial(n)
        assert_same_monomial(f, Monomial(n, {index: 1 for index in parent_index_set(n)}))
        rng = random.Random(n)
        for _ in range(20):
            pi = list(range(1, n + 1))
            rng.shuffle(pi)
            assert_same_monomial(perm_action(tuple(pi), f), parent_perm_action(tuple(pi), f))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(4, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(1, n + 1)), st.integers(0, 100), st.integers(0, 3)
    )))
    def test_perm_relation_and_shift(self, case):
        n, pi, pick, k = case
        rel = parent_plucker_relations(n)[pick % comb(n, 4)]
        want = BlueprintRel(
            [parent_perm_action(pi, m) for m in rel.left], [parent_perm_action(pi, m) for m in rel.right]
        )
        assert_same_relation(perm_relation(tuple(pi), rel), want)
        assert_same_relation(localize_relation(want, k), parent_shifted(want, k))
        assert_same_relation(clear_denominators(parent_shifted(want, k)), want)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_plucker_relations(self, n):
        for got, want in zip(plucker_relations(n), parent_plucker_relations(n), strict=True):
            assert_same_relation(got, want)

    @pytest.mark.parametrize("g,n", [(1, 4), (1, 5), (2, 5), (2, 6), (1, 7), (3, 7)])
    def test_crossed_relations(self, g, n):
        rels = parent_plucker_relations(n)
        group = [embed_perm(p, n) for p in centralizer_subgroup(g)]
        got, want = crossed_relations(rels, group), parent_crossed_relations(rels, group)
        assert len(got) == len(want)
        for (a, b), (c, d) in zip(got, want):
            assert_same_crossed(a, c)
            assert_same_crossed(b, d)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=4),
        st.lists(st.integers(0, 200), min_size=1, max_size=4),
        st.integers(0, 2),
    )))
    def test_crossed_relations_of_any_group(self, case):
        n, group, picks, k = case
        rels = parent_plucker_relations(n)
        rels = [parent_shifted(rels[p % len(rels)], k) for p in picks]
        got, want = crossed_relations(rels, group), parent_crossed_relations(rels, group)
        assert len(got) == len(want)
        for (a, b), (c, d) in zip(got, want):
            assert_same_crossed(a, c)
            assert_same_crossed(b, d)

    def test_crossed_relations_check_every_side(self):
        rel5, rel6 = plucker_relations(5)[0], plucker_relations(6)[0]
        with pytest.raises(ValueError, match=r"^perm must be a permutation tuple of 1\.\.n$"):
            crossed_relations([rel5, rel6], [identity_perm(5)])
        # a relation mixing two n is refused when it is built
        with pytest.raises(ValueError, match=r"^summands must live over the same index set$"):
            crossed_relations([BlueprintRel(rel5.left, rel6.right)], [identity_perm(5)])
        assert crossed_relations([], [(1, 1)]) == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(4, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.sampled_from(parent_index_set(n)), st.integers(1, 5)), max_size=8),
        st.integers(0, 4),
    )))
    def test_canonical_constructor(self, case):
        # every input meeting the private constructor's invariants: sorted by
        # index sort key, no repeated index, positive exponents, one n
        n, exps, fpow = case
        canonical = tuple(sorted(dict(exps).items(), key=lambda p: p[0].sort_key()))
        got = Monomial._new(n, canonical, fpow)
        assert_same_monomial(got, Monomial(n, dict(exps), fpow))
        assert_same_monomial(got, Monomial(n, canonical, fpow))


class TestBoundedMemory:
    def test_only_small_tables_are_kept(self):
        from f1kit import blueprint

        for n in range(4, 15):
            got = index_set(n)
            assert got == parent_index_set(n)
            assert [str(i) for i in got] == [str(i) for i in parent_index_set(n)]
        assert blueprint._TABLE_MAX_N < 13
        assert set(blueprint._TABLES) <= set(range(4, blueprint._TABLE_MAX_N + 1))

    def test_index_set_hands_out_the_interned_indices(self):
        a, b = index_set(7), index_set(7)
        assert a == b and a is not b
        assert all(x is y for x, y in zip(a, b))
        a.clear()
        assert len(index_set(7)) == 2**6 - 8

    def test_perm_action_retains_nothing(self):
        # the first 1,000 calls fill the interpreter's free lists, the next
        # 1,000 (other permutations, other monomials) must leave nothing behind
        import gc
        import tracemalloc

        rng = random.Random(2013)
        cases = []
        for _ in range(2000):
            n = rng.randint(4, 12)
            pi = list(range(1, n + 1))
            rng.shuffle(pi)
            indices = index_set(n)
            support = rng.sample(indices, rng.randint(0, min(5, len(indices))))
            cases.append((tuple(pi), Monomial(n, {i: rng.randint(1, 3) for i in support}, rng.randint(0, 2))))
        tracemalloc.start()
        try:
            for pi, mono in cases[:1000]:
                perm_action(pi, mono)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for pi, mono in cases[1000:]:
                perm_action(pi, mono)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 2048
