"""Acceptance gate: one check per criterion, each printed as a pass/fail line.

Run under pytest (one test per criterion) or directly with
``python tests/test_acceptance.py``.  Every identity is exact; there are no
tolerances anywhere.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations, product
from math import comb, factorial

import pytest

from f1kit.blueprint import (
    Monomial,
    centralizer_subgroup,
    count_max_simplexes,
    crossed_mul,
    crossed_relations,
    embed_perm,
    full_product_monomial,
    index_set,
    perm_action,
    perm_relation,
    plucker_relations,
    relation_triples,
    unit_monomial,
    CrossedElem,
)
from f1kit.genseries import (
    f1m_count,
    mbar0_class,
    open_stratum_class,
    solve_tdn_ode,
    stratum_factor_class,
    tdn_class,
)
from f1kit.motive import MotClass, blowup_class, proj_class
from f1kit.torif import (
    ConstructibleTorification,
    Torus,
    blowup_decomposition,
    is_strongly_complemented,
    product_torification,
    selection_class,
    torify_proj_space,
)
from f1kit.treeop import (
    RootedTree,
    _stable_forms,
    compose,
    enumerate_stable_trees,
    forget_marking,
    permute_markings,
    strata_sum,
    tree_points,
)

CRITERIA = []


def criterion(number, title):
    def register(fn):
        CRITERIA.append((number, title, fn))
        return fn

    return register


@criterion(1, "recursion matches the series equation for the genus-zero family")
def check_recursion_vs_ode_genus0():
    series = solve_tdn_ode(1, 12)
    for n in range(2, 13):
        assert mbar0_class(n + 1) == series.coeff(n), "mismatch at n=%d" % n


@criterion(2, "recursion matches the series equation for d = 1, 2, 3")
def check_recursion_vs_ode_general():
    for d in (1, 2, 3):
        series = solve_tdn_ode(d, 9)
        for n in range(1, 10):
            assert tdn_class(d, n) == series.coeff(n), "mismatch at d=%d n=%d" % (d, n)


@criterion(3, "the d = 1 family specializes to the genus-zero classes")
def check_specialization():
    for n in range(1, 11):
        assert tdn_class(1, n) == mbar0_class(n + 1), "mismatch at n=%d" % n


@criterion(4, "known class values and the Poincare substitution")
def check_known_values():
    assert mbar0_class(4).in_basis("L") == (1, 1)
    assert mbar0_class(5).in_basis("L") == (1, 5, 1)
    assert mbar0_class(6).in_basis("L") == (1, 16, 16, 1)
    assert mbar0_class(6).poincare() == (1, 0, 16, 0, 16, 0, 1)


@criterion(5, "compactified classes are effective; open strata never are")
def check_positivity_negativity():
    for n in range(2, 13):
        assert mbar0_class(n).is_effective(), "mbar0 n=%d" % n
    for d in (1, 2, 3):
        for n in range(1, 9):
            assert tdn_class(d, n).is_effective(), "tdn d=%d n=%d" % (d, n)
    for d in (1, 2, 3):
        for n in range(3, 11):
            assert not open_stratum_class(d, n).is_effective(), "open d=%d n=%d" % (d, n)


def _in_degrees(form):
    inputs, subs = form
    degrees = [len(inputs) + len(subs)]
    for sub in subs:
        degrees.extend(_in_degrees(sub))
    return degrees


def enumerated_strata_sum(d, n):
    """Strata total by listing every stable tree, grouped by in-degree profile."""
    profiles = Counter(
        tuple(sorted(_in_degrees(form))) for _, form in _stable_forms(tuple(range(1, n + 1)), {})
    )
    total = MotClass.zero()
    for profile, count in profiles.items():
        cls = MotClass.one()
        for k in profile:
            cls = cls * stratum_factor_class(d, k)
        total = total + count * cls
    return total


@criterion(6, "master strata oracle: tree stratification sums to the class")
def check_strata_oracle():
    for d in (1, 2):
        for n in range(2, 8):
            listed = enumerated_strata_sum(d, n)
            assert listed == strata_sum(d, n) == tdn_class(d, n), "mismatch at d=%d n=%d" % (d, n)
    for d in (1, 2, 3):
        for n in range(2, 26):
            assert strata_sum(d, n) == tdn_class(d, n), "species mismatch at d=%d n=%d" % (d, n)
    assert strata_sum(1, 9) == tdn_class(1, 9)
    trees = enumerate_stable_trees(4)
    assert len(trees) == 26
    sizes = [len(t.vertices) for t in trees]
    assert (sizes.count(1), sizes.count(2), sizes.count(3)) == (1, 10, 15)


@criterion(7, "point counts: Euler characteristics and the glued-tree formula")
def check_point_counts():
    assert f1m_count(1, 4, 0) == 7
    assert f1m_count(1, 5, 0) == 34
    pool = []
    for n in (2, 3, 4, 5):
        pool.extend(enumerate_stable_trees(n))
        if len(pool) >= 100:
            break
    for tree in pool[:100]:
        n_vertices = len(tree.vertices)
        for m in range(11):
            assert tree_points(tree, 1, m) == n_vertices * (m + 1) + 1


@criterion(8, "torification calculus: cells, blowups, complementedness verdicts")
def check_torification_calculus():
    for d in range(6):
        assert torify_proj_space(d).total_class == proj_class(d), "proj d=%d" % d

    rng = random.Random(20260810)
    for _ in range(50):
        pieces = [("p%d" % i, Torus(rng.randint(0, 3))) for i in range(rng.randint(1, 7))]
        ct = ConstructibleTorification(pieces)
        center = [lab for lab, _ in rng.sample(pieces, rng.randint(1, len(pieces)))]
        codim = rng.randint(1, 4)
        got = blowup_decomposition(ct, center, codim).total_class
        want = blowup_class(ct.total_class, selection_class(ct, center), codim)
        assert got == want

    line = torify_proj_space(1)
    assert is_strongly_complemented(line, ["cell0:t0"])
    assert not is_strongly_complemented(line, {"cell1:t1": Torus(0)})
    square = product_torification(line, line)
    diagonal = {
        "cell0:t0xcell0:t0": None,
        "cell1:t0xcell1:t0": None,
        "cell1:t1xcell1:t1": Torus(1),
    }
    assert not is_strongly_complemented(square, diagonal)


@criterion(9, "blueprint: index counts, relations, nesting complex, symmetry")
def check_blueprint():
    for n in range(4, 11):
        assert len(index_set(n)) == 2 ** (n - 1) - n - 1, "index count n=%d" % n
    for n in range(4, 9):
        assert len(plucker_relations(n)) == comb(n, 4), "relation count n=%d" % n
    assert str(plucker_relations(4)[0]) == "x{1,2} + x{1,4} == x{1,3}"
    for n in (4, 5, 6):
        assert count_max_simplexes(n) == factorial(2 * n - 5) // (2 ** (n - 3) * factorial(n - 3))
    for n in (4, 5, 6):
        rels = plucker_relations(n)
        triples = relation_triples(rels)
        f = full_product_monomial(n)
        for pi in permutations(range(1, n + 1)):
            assert perm_action(pi, f) == f, "f moved by %r" % (pi,)
            mapped = relation_triples([perm_relation(pi, r) for r in rels])
            assert mapped == triples, "relation set moved by %r" % (pi,)


@criterion(10, "crossed products: centralizer orders, associativity, pair count")
def check_crossed_products():
    for g in (1, 2, 3, 4):
        assert len(centralizer_subgroup(g)) == 2**g * factorial(g), "order at g=%d" % g

    rng = random.Random(1089)
    gens = index_set(5)
    group = [embed_perm(p, 5) for p in centralizer_subgroup(2)]

    def rand_elem():
        k = rng.randint(0, 2)
        summands = [Monomial(5, {rng.choice(gens): rng.randint(1, 2)}) for _ in range(k)]
        return CrossedElem(5, summands or [unit_monomial(5)], rng.choice(group))

    for _ in range(10**4):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert crossed_mul(crossed_mul(x, y), z) == crossed_mul(x, crossed_mul(y, z))

    pairs = crossed_relations(plucker_relations(6), [embed_perm(p, 6) for p in centralizer_subgroup(2)])
    assert len(pairs) == comb(6, 4) * 2**2 * factorial(2) == 120


def _law_family(n):
    if n == 1:
        return [RootedTree.unit()]
    return enumerate_stable_trees(n)


def _standardize(tree):
    labels = sorted(tree.input_labels)
    return permute_markings(tree, {l: i + 1 for i, l in enumerate(labels)})


def _block_perm(sizes, pi):
    k = len(sizes)
    off = [0] * (k + 1)
    for i in range(k):
        off[i + 1] = off[i] + sizes[i]
    inverse = [0] * k
    for i in range(k):
        inverse[pi[i] - 1] = i + 1
    noff = [0] * (k + 1)
    for j in range(k):
        noff[j + 1] = noff[j] + sizes[inverse[j] - 1]
    mapping = {}
    for i in range(1, k + 1):
        j = pi[i - 1]
        for t in range(1, sizes[i - 1] + 1):
            mapping[off[i - 1] + t] = noff[j - 1] + t
    return mapping


@criterion(11, "operad laws: unit, associativity, equivariance, forgetful maps")
def check_operad_laws():
    # unit laws over every stable tree with at most 5 inputs
    for n in (2, 3, 4, 5):
        for tau in enumerate_stable_trees(n):
            assert compose(tau, [RootedTree.unit()] * n) == tau
            assert compose(RootedTree.unit(), [tau]) == tau

    # associativity of nested composition, all shapes with final arity <= 5
    for k in (1, 2):
        for tau in _law_family(k):
            for ms in product((1, 2, 3), repeat=k):
                if sum(ms) > 4:
                    continue
                for sigmas in product(*[_law_family(m) for m in ms]):
                    total = sum(ms)
                    for rs in product((1, 2), repeat=total):
                        if sum(rs) > 5:
                            continue
                        for rhos in product(*[_law_family(r) for r in rs]):
                            left = compose(compose(tau, list(sigmas)), list(rhos))
                            blocks, pos = [], 0
                            for m in ms:
                                blocks.append(list(rhos[pos : pos + m]))
                                pos += m
                            right = compose(
                                tau, [compose(s, b) for s, b in zip(sigmas, blocks)]
                            )
                            assert left == right

    # equivariance: permuting the host's inputs permutes the argument blocks
    for k in (2, 3):
        for tau in _law_family(k):
            for pi in permutations(range(1, k + 1)):
                tau_p = permute_markings(tau, {i + 1: pi[i] for i in range(k)})
                for sizes in product((1, 2, 3), repeat=k):
                    if sum(sizes) > 5:
                        continue
                    for args in product(*[_law_family(s) for s in sizes]):
                        inverse = [0] * k
                        for i in range(k):
                            inverse[pi[i] - 1] = i
                        permuted_args = [args[inverse[j]] for j in range(k)]
                        left = compose(tau_p, permuted_args)
                        right = permute_markings(
                            compose(tau, list(args)), _block_perm(list(sizes), pi)
                        )
                        assert left == right

    # forgetting a marking commutes with composition whenever the marked
    # block keeps a stable root (root contraction crosses the gluing node)
    for k in (2, 3):
        for tau in _law_family(k):
            for sizes in product((1, 2, 3, 4), repeat=k):
                if sum(sizes) > 5:
                    continue
                for args in product(*[_law_family(s) for s in sizes]):
                    composed = compose(tau, list(args))
                    offset = 0
                    for i, arg in enumerate(args):
                        m = sizes[i]
                        if m >= 2:
                            labels = sorted(arg.input_labels)
                            for t, label in enumerate(labels, start=1):
                                root_loses = (
                                    arg.boundary[arg.input_labels[label]] == arg.root_vertex
                                )
                                remaining = arg.in_degree(arg.root_vertex) - (
                                    1 if root_loses else 0
                                )
                                if remaining < 2 and arg.children(arg.root_vertex):
                                    continue
                                left = _standardize(forget_marking(composed, offset + t))
                                right = compose(
                                    tau,
                                    [
                                        forget_marking(arg, label) if j == i else args[j]
                                        for j in range(k)
                                    ],
                                )
                                assert left == right
                        offset += m


@criterion(12, "every CLI command emits byte-identical output across two runs")
def check_cli_determinism():
    env = {k: v for k, v in os.environ.items() if k != "F1KIT_CACHE_DIR"}
    invocations = [
        ["classes", "--space", "mbar0", "--n", "6", "--basis", "L"],
        ["classes", "--space", "tdn", "--d", "2", "--n", "4", "--format", "json"],
        ["points", "--space", "tdn", "--d", "1", "--n", "4", "--m", "0"],
        ["series", "--d", "1", "--order", "8", "--format", "csv"],
        ["strata", "--d", "1", "--n", "4", "--format", "json"],
        ["torify", "--d", "2"],
        ["blueprint", "--n", "5", "--format", "json"],
        ["crossed", "--g", "2", "--n", "6", "--format", "csv"],
    ]
    for argv in invocations:
        cmd = [sys.executable, "-m", "f1kit"] + argv
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0, "command failed: %r" % (argv,)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, "nondeterministic output: %r" % (argv,)
        assert first.stdout, "empty output: %r" % (argv,)


def _run_one(number, title, fn):
    try:
        fn()
    except AssertionError as exc:
        print("FAIL criterion %2d: %s (%s)" % (number, title, exc))
        return False
    print("PASS criterion %2d: %s" % (number, title))
    return True


@pytest.mark.parametrize("number,title,fn", CRITERIA, ids=[f"criterion_{c[0]:02d}" for c in CRITERIA])
def test_criterion(number, title, fn):
    assert _run_one(number, title, fn)


def main():
    ok = all([_run_one(*entry) for entry in CRITERIA])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
