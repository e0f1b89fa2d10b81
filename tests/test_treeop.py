import copy
import hashlib
import inspect
import json
import pickle
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from f1kit import treeop
from f1kit.genseries import stratum_factor_class, tdn_class
from f1kit.motive import MotClass, proj_class
from f1kit.torif import (
    ConstructibleTorification,
    DisjointUnion,
    Product,
    constructible_open_stratum,
    torify_proj_space,
    torify_tree_curve,
)
from f1kit.treeop import (
    RootedTree,
    StratumDescriptor,
    _canonical,
    _graft,
    _label_key,
    _stable_forms,
    compose,
    contract_edge,
    enumerate_stable_trees,
    forget_marking,
    graft,
    graft_all,
    permute_markings,
    strata_sum,
    strata_table,
    tree_class,
    tree_points,
)


def _canon_str(form):
    """The serialization of a canonical form, written out on its own: the oracle for the strings trees carry."""
    inputs, subs = form
    return "(%s|%s)" % (",".join(repr(m) for m in inputs), ";".join(_canon_str(c) for c in subs))


def _edge_label_sets(form):
    """The labels below each edge of a nested form: one set per vertex but the root."""
    out = []

    def below(node):
        inputs, subs = node
        labels = frozenset(inputs).union(*map(below, subs))
        out.append(labels)
        return labels

    below(form)
    return out[:-1]


def law_family(n):
    """Arity-n composition arguments: stable trees, plus the unit at arity 1."""
    if n == 1:
        return [RootedTree.unit()]
    return enumerate_stable_trees(n)


def standardize(tree):
    labels = sorted(tree.input_labels)
    return permute_markings(tree, {l: i + 1 for i, l in enumerate(labels)})


# -- flag-level reference operations ------------------------------------------
# compose and forget_marking work on nested forms; these are the flag-level
# routes they replaced, kept as oracles.


def flag_compose(tau, args):
    """Relabel, graft every argument, contract the new edges, renumber."""
    relabeled = []
    offset = 0
    for a in args:
        old = sorted(a.input_labels, key=_label_key)
        relabeled.append(permute_markings(a, {o: offset + i + 1 for i, o in enumerate(old)}))
        offset += len(old)
    tree, new_edges = graft_all(tau, relabeled)
    return contract_vertices(tree, [edge_child(tree, e) for e in new_edges]).renumbered()


def flag_forget(tau, s):
    """Drop the tail of s, then contract the shallowest unstable vertex until none is left."""
    f = tau.input_labels[s]
    flags = tau.flags - {f}
    boundary = {h: tau.boundary[h] for h in flags}
    involution = {h: tau.involution[h] for h in flags}
    input_labels = {m: h for m, h in tau.input_labels.items() if m != s}
    t = RootedTree(flags, tau.vertices, boundary, involution, tau.root_tail, input_labels)
    while len(t.vertices) > 1:
        unstable = sorted((v for v in t.vertices if t.in_degree(v) < 2), key=lambda v: (t.depth(v), str(v)))
        if not unstable:
            break
        v = unstable[0]
        if v == t.root_vertex:
            kids = t.children(v)
            if not kids:
                break
            edge = frozenset((t._out_flag[kids[0]], t.involution[t._out_flag[kids[0]]]))
        else:
            f_out = t._out_flag[v]
            edge = frozenset((f_out, t.involution[f_out]))
        t = contract_edge(t, edge)
    return t.renumbered()


def flag_data(tree):
    return (tree.flags, tree.vertices, tree.boundary, tree.involution, tree.root_tail, tree.input_labels)


# -- flag-level grafting and contraction over plain flag data -----------------
# data = (flags, vertices, boundary, involution, root_tail, input_labels), as
# flag_data returns it.  graft, graft_all and contract_edge once worked on
# such data; these are those routes, kept as oracles.


def flag_glue(host, plugs):
    """Union of host and guests with one new edge per plug (tail, guest data).

    host ids are tagged ("h", x) and guest k's ("a", k, x).
    """
    h_flags, h_vertices, h_boundary, h_involution, h_root, h_labels = host
    flags = [("h", f) for f in h_flags]
    vertices = [("h", v) for v in h_vertices]
    boundary = {("h", f): ("h", v) for f, v in h_boundary.items()}
    involution = {("h", f): ("h", g) for f, g in h_involution.items()}
    plugged = {tail for tail, _ in plugs}
    input_labels = {m: ("h", f) for m, f in h_labels.items() if f not in plugged}
    for k, (tail, guest) in enumerate(plugs):
        g_flags, g_vertices, g_boundary, g_involution, g_root, g_labels = guest
        flags.extend(("a", k, f) for f in g_flags)
        vertices.extend(("a", k, v) for v in g_vertices)
        boundary.update({("a", k, f): ("a", k, v) for f, v in g_boundary.items()})
        involution.update({("a", k, f): ("a", k, g) for f, g in g_involution.items()})
        input_labels.update({m: ("a", k, f) for m, f in g_labels.items()})
        involution[("h", tail)], involution[("a", k, g_root)] = ("a", k, g_root), ("h", tail)
    return (frozenset(flags), frozenset(vertices), boundary, involution, ("h", h_root), input_labels)


def flag_walk(data):
    """Depth of every vertex and the nested form, by a walk from the root tail."""
    flags, _, boundary, involution, root_tail, input_labels = data
    depth = {}

    def nested(out, d):
        v = boundary[out]
        depth[v] = d
        inputs = tuple(m for m, f in input_labels.items() if boundary[f] == v)
        subs = tuple(nested(involution[f], d + 1) for f in flags if boundary[f] == v and f != out and involution[f] != f)
        return (inputs, subs)

    form = nested(root_tail, 0)
    return depth, form


def flag_contract(data, edge):
    """Drop the two flags of edge and merge its child vertex into its mother."""
    flags, vertices, boundary, involution, root_tail, input_labels = data
    depth, _ = flag_walk(data)
    f, g = sorted(edge, key=lambda x: depth[boundary[x]])
    keep, drop = boundary[f], boundary[g]
    flags = flags - edge
    boundary = {h: (keep if boundary[h] == drop else boundary[h]) for h in flags}
    involution = {h: involution[h] for h in flags}
    return (flags, vertices - {drop}, boundary, involution, root_tail, input_labels)


def flag_canonical(data):
    return RootedTree.from_nested(flag_walk(data)[1]).canonical_str()


def assert_glued(tree, edges, host, plugs):
    """tree matches flag_glue, and edge k hangs guest k from the vertex of slot k."""
    data = flag_glue(flag_data(host), [(host.input_labels[slot], flag_data(g)) for slot, g in plugs])
    assert tree.canonical_str() == flag_canonical(data)
    assert len(edges) == len(plugs)
    for e, (slot, guest) in zip(edges, plugs):
        assert e in tree.edges()
        assert below(tree, edge_child(tree, e)) == guest


def assert_contracts(tree):
    for e in tree.edges():
        want = flag_canonical(flag_contract(flag_data(tree), e))
        assert contract_edge(tree, e).canonical_str() == want


def moved(tree, base):
    """tree with its labels, in label order, renamed base + 1, base + 2, ..."""
    old = sorted(tree.markings, key=_label_key)
    return permute_markings(tree, {m: base + i + 1 for i, m in enumerate(old)})


def edge_child(tree, edge):
    """The vertex an edge hangs from: the deeper of its two ends."""
    return max((tree.boundary[f] for f in edge), key=tree.depth)


def below(tree, v):
    """The subtree of vertex v, read off the flag view."""

    def nested(w):
        inputs = tuple(m for m, f in tree.input_labels.items() if tree.boundary[f] == w)
        return (inputs, tuple(nested(c) for c in tree.children(w)))

    return RootedTree.from_nested(nested(v))


def contract_vertices(tree, vertices):
    """Contract the edge above each vertex in turn, each re-read from the current tree.

    Contracting vertex w renumbers only the later vertices (v > w becomes
    v - 1), because its children keep their place in its mother.
    """
    vertices = list(vertices)
    while vertices:
        w = vertices.pop(0)
        f = tree._out_flag[w]
        tree = contract_edge(tree, (f, tree.involution[f]))
        vertices = [v - (v > w) for v in vertices]
    return tree


def assert_same_tree(got, want):
    assert got.canonical_str() == want.canonical_str()
    assert flag_data(got) == flag_data(want)


def _draw_form(draw, labels, depth):
    k = draw(st.integers(0, len(labels)))
    inputs, rest = labels[:k], labels[k:]
    subs = []
    count = draw(st.integers(0, 3 if depth < 3 else 0))
    for i in range(count):
        j = draw(st.integers(0, len(rest))) if i < count - 1 else len(rest)
        subs.append(_draw_form(draw, rest[:j], depth + 1))
        rest = rest[j:]
    return (tuple(inputs + rest), tuple(subs))


@st.composite
def nested_forms(draw, max_labels=6):
    """Forms with distinct int or str labels in any order, stable or not."""
    n = draw(st.integers(0, max_labels))
    labels = [str(m) if draw(st.booleans()) else m for m in draw(st.permutations(range(1, n + 1)))]
    return _draw_form(draw, labels, 0)


class TestStructure:
    def test_depth_and_ids_follow_the_given_form(self):
        # a chain given deeper child first; the canonical form puts it last
        form = ((98, 99), ())
        for k in range(6):
            form = ((900 + k,), (form, ((10 * k + 4, 10 * k + 5), ())))
        t = RootedTree.from_nested(form)
        assert [t.depth(v) for v in sorted(t.vertices)] == [0, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1]
        r = t.renumbered()
        assert [r.depth(v) for v in sorted(r.vertices)] == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
        assert (t.input_labels[905], t.input_labels[54], r.input_labels[54]) == (1, 43, 4)
        assert r == t

    @settings(max_examples=150, deadline=None)
    @given(nested_forms())
    @example(((1,), (((2, 3), ()),)))
    @example(((), ()))
    @example(((), (((), ()),)))
    @example(((3, 1), (((2,), ()),)))
    def test_flag_data_checks_pass_on_built_forms(self, form):
        t = RootedTree.from_nested(form)
        assert_same_tree(RootedTree(*flag_data(t)), t)

    def test_incomparable_ids_build(self):
        # root "A" holds input 1 and the edge 7 -> "x" to vertex 5, which holds 2 and 3
        t = RootedTree(
            ["r", ("h", 1), 7, "x", (2,), "t"],
            ["A", 5],
            {"r": "A", ("h", 1): "A", 7: "A", "x": 5, (2,): 5, "t": 5},
            {"r": "r", ("h", 1): ("h", 1), 7: "x", "x": 7, (2,): (2,), "t": "t"},
            "r",
            {1: ("h", 1), 2: (2,), 3: "t"},
        )
        assert t == RootedTree.from_nested(((1,), (((2, 3), ()),)))
        assert (t.flags, t.vertices) == (frozenset(range(6)), frozenset(range(2)))

    def test_self_loop_rejected(self):
        # the edge 1 -- 2 joins vertex 0 to itself, so vertex 1 hangs free
        with pytest.raises(ValueError, match=r"^flag data is not a tree \(disconnected\)$"):
            RootedTree([0, 1, 2, 3], [0, 1], {0: 0, 1: 0, 2: 0, 3: 1}, {0: 0, 1: 2, 2: 1, 3: 3}, 0, {5: 3})

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError):
            RootedTree.from_nested(((1,), (((1, 2), ()),)))

    def test_corolla(self):
        c = RootedTree.corolla((1, 2, 3))
        assert len(c.vertices) == 1
        assert c.input_count() == 3
        assert c.in_degree(c.root_vertex) == 3
        assert c.edges() == set()

    def test_two_vertex(self):
        t = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        assert len(t.vertices) == 2
        assert len(t.edges()) == 1
        assert sorted(t.in_degree(v) for v in t.vertices) == [2, 2]
        child = [v for v in t.vertices if v != t.root_vertex][0]
        assert t.mother(child) == t.root_vertex

    def test_json_round_trip(self):
        t = RootedTree.from_nested(((5,), (((1, 2), ()), ((3, 4), ()))))
        assert RootedTree.from_json(t.to_json()) == t

    @pytest.mark.parametrize("obj", [{}, {"children": []}, {"inputs": [1], "children": [{}]}, "{}"])
    def test_a_missing_key_is_named(self, obj):
        with pytest.raises(ValueError, match="^missing JSON key 'inputs'$"):
            RootedTree.from_json(obj)

    def test_equality_is_label_respecting_isomorphism(self):
        a = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        b = RootedTree.from_nested(((1,), (((3, 2), ()),)))
        c = RootedTree.from_nested(((2,), (((1, 3), ()),)))
        assert a == b
        assert a != c

    def test_invalid_involution_rejected(self):
        with pytest.raises(ValueError):
            RootedTree([0, 1], [0], {0: 0, 1: 0}, {0: 1, 1: 0}, 0, {})

    def test_disconnected_rejected(self):
        # two vertices, no edge between them
        with pytest.raises(ValueError):
            RootedTree([0, 1, 2], [0, 1], {0: 0, 1: 0, 2: 1}, {0: 0, 1: 1, 2: 2}, 0, {1: 1, 2: 2})


class TestStability:
    def test_one_input_corolla(self):
        assert not RootedTree.unit().is_stable()

    def test_two_input_corolla(self):
        assert RootedTree.corolla((1, 2)).is_stable()

    def test_root_starved(self):
        t = RootedTree.from_nested(((), (((1, 2), ()),)))
        assert not t.is_stable()


class TestGraft:
    def test_flag_maps_are_read_only(self):
        host, sub = RootedTree.corolla((1, 2)), RootedTree.corolla((3, 4))
        with pytest.raises(TypeError):
            host.input_labels[1] = host.input_labels[2]
        for view in (host.boundary, host.involution):
            with pytest.raises(TypeError):
                view[0] = 1
        assert graft(sub, host, host.input_labels[2]).canonical_str() == "(1|(3,4|))"

    def test_arity_bookkeeping(self):
        host = RootedTree.corolla((1, 2))
        sub = RootedTree.corolla((4, 5))
        out = graft(sub, host, host.input_labels[2])
        assert sorted(out.markings) == [1, 4, 5]
        assert len(out.vertices) == 2
        assert out.input_count() == sub.input_count() + host.input_count() - 1

    def test_unit_law_via_graft_and_contract(self):
        for tau in enumerate_stable_trees(3):
            unit = RootedTree.unit(9)
            t, e = _graft(tau, unit, unit.input_labels[9])
            assert contract_edge(t, e) == tau

    def test_graft_then_contract_gives_summed_corolla(self):
        for k1 in (2, 3):
            for k2 in (2, 3):
                host = RootedTree.corolla(tuple(range(1, k1 + 1)))
                sub = RootedTree.corolla(tuple(range(10, 10 + k2)))
                t, e = _graft(sub, host, host.input_labels[1])
                got = contract_edge(t, e)
                assert got == RootedTree.corolla(tuple(range(2, k1 + 1)) + tuple(range(10, 10 + k2)))

    def test_graft_matches_nested_substitution(self):
        def plugged(form, slot, guest):
            inputs, subs = form
            if slot in inputs:
                return (tuple(m for m in inputs if m != slot), subs + (guest,))
            return (inputs, tuple(plugged(sub, slot, guest) for sub in subs))

        guests = [
            permute_markings(g, {m: m + 10 for m in g.markings})
            for n in (2, 3)
            for g in enumerate_stable_trees(n)
        ]
        for n in (2, 3, 4):
            for host in enumerate_stable_trees(n):
                for slot in sorted(host.markings):
                    for guest in guests:
                        got = graft(guest, host, host.input_labels[slot])
                        want = RootedTree.from_nested(plugged(host.to_nested(), slot, guest.to_nested()))
                        assert got == want

    def test_reject_root_tail(self):
        host = RootedTree.corolla((1, 2))
        with pytest.raises(ValueError):
            graft(RootedTree.corolla((3, 4)), host, host.root_tail)

    def test_reject_edge_flag(self):
        host = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        edge_flag = next(f for f, g in host.involution.items() if f != g)
        with pytest.raises(ValueError):
            graft(RootedTree.corolla((7, 8)), host, edge_flag)

    def test_reject_marking_collision(self):
        host = RootedTree.corolla((1, 2))
        with pytest.raises(ValueError):
            graft(RootedTree.corolla((1, 5)), host, host.input_labels[2])


class TestContract:
    def test_two_vertex_to_corolla(self):
        t = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        (edge,) = t.edges()
        assert contract_edge(t, edge) == RootedTree.corolla((1, 2, 3))

    def test_order_independence(self):
        # contract all edges of small trees in every order: same corolla
        for n in (3, 4):
            for t in enumerate_stable_trees(n):
                edges = list(t.edges())
                results = set()
                for order in permutations(edges):
                    results.add(contract_vertices(t, [edge_child(t, e) for e in order]))
                assert results == {RootedTree.corolla(tuple(range(1, n + 1)))}

    def test_reject_tail(self):
        t = RootedTree.corolla((1, 2))
        with pytest.raises(ValueError):
            contract_edge(t, (t.root_tail, t.input_labels[1]))


class TestCompose:
    def test_unit_laws(self):
        for n in (2, 3, 4):
            c = RootedTree.corolla(tuple(range(1, n + 1)))
            assert compose(c, [RootedTree.unit()] * n) == c
        for tau in enumerate_stable_trees(3):
            assert compose(RootedTree.unit(), [tau]) == tau

    def test_corolla_composition(self):
        got = compose(RootedTree.corolla((1, 2)), [RootedTree.corolla((1, 2)), RootedTree.corolla((1, 2, 3))])
        assert got == RootedTree.corolla((1, 2, 3, 4, 5))

    def test_input_counts_add(self):
        tau = RootedTree.corolla((1, 2))
        args = [enumerate_stable_trees(3)[1], enumerate_stable_trees(2)[0]]
        assert compose(tau, args).input_count() == 5

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            compose(RootedTree.corolla((1, 2)), [RootedTree.unit()])

    def test_associativity_instance(self):
        tau = RootedTree.corolla((1, 2))
        sigmas = [RootedTree.corolla((1, 2)), RootedTree.unit()]
        rhos = [RootedTree.unit(), enumerate_stable_trees(2)[0], RootedTree.unit()]
        left = compose(compose(tau, sigmas), rhos)
        right = compose(tau, [compose(sigmas[0], rhos[:2]), compose(sigmas[1], rhos[2:])])
        assert left == right

    def test_grafted_intermediate_contraction_confluence(self):
        tau = RootedTree.corolla((1, 2))
        args = [enumerate_stable_trees(2)[0], enumerate_stable_trees(3)[2]]
        relabeled = []
        offset = 0
        for a in args:
            old = sorted(a.input_labels)
            relabeled.append(permute_markings(a, {o: offset + i + 1 for i, o in enumerate(old)}))
            offset += len(old)
        grafted, new_edges = graft_all(tau, relabeled)
        results = set()
        for order in permutations(new_edges):
            results.add(contract_vertices(grafted, [edge_child(grafted, e) for e in order]))
        assert len(results) == 1
        assert results.pop() == compose(tau, args)


class TestFlagOracles:
    def test_forget_every_marking_n5(self):
        for n in range(2, 6):
            for t in enumerate_stable_trees(n):
                for s in range(1, n + 1):
                    assert_same_tree(forget_marking(t, s), flag_forget(t, s))

    def test_compose_small(self):
        family = [RootedTree.unit()] + enumerate_stable_trees(2) + enumerate_stable_trees(3)
        for tau in family:
            for args in product(family, repeat=tau.input_count()):
                assert_same_tree(compose(tau, list(args)), flag_compose(tau, list(args)))

    @settings(max_examples=150, deadline=None)
    @given(nested_forms())
    def test_forget_drawn_forms(self, form):
        t = RootedTree.from_nested(form)
        for s in t.markings:
            assert_same_tree(forget_marking(t, s), flag_forget(t, s))

    @settings(max_examples=150, deadline=None)
    @given(nested_forms(3), st.lists(nested_forms(3), min_size=3, max_size=3))
    def test_compose_drawn_forms(self, form, arg_forms):
        tau = RootedTree.from_nested(form)
        args = [RootedTree.from_nested(f) for f in arg_forms[: tau.input_count()]]
        assert_same_tree(compose(tau, args), flag_compose(tau, args))

    @settings(max_examples=150, deadline=None)
    @given(nested_forms(), st.randoms(use_true_random=False))
    def test_permute_keeps_flag_ids(self, form, rng):
        t = RootedTree.from_nested(form)
        labels = sorted(t.markings, key=_label_key)
        images = list(labels)
        rng.shuffle(images)
        pi = dict(zip(labels, images))
        got = permute_markings(t, pi)
        assert flag_data(got)[:5] == flag_data(t)[:5]
        assert got.input_labels == {pi[m]: f for m, f in t.input_labels.items()}
        assert got == RootedTree(*flag_data(t)[:5], got.input_labels)

    def test_graft_matches_flag_glue(self):
        guests = [moved(g, 10) for n in (1, 2, 3) for g in law_family(n)]
        for n in (2, 3, 4):
            for host in enumerate_stable_trees(n):
                for slot in sorted(host.markings):
                    for guest in guests:
                        tree, edge = _graft(guest, host, host.input_labels[slot])
                        assert_glued(tree, (edge,), host, [(slot, guest)])
                        assert_contracts(tree)

    def test_graft_all_matches_flag_glue(self):
        guests = [g for n in (1, 2, 3) for g in law_family(n)]
        for n in (2, 3, 4):
            for host in enumerate_stable_trees(n):
                slots = sorted(host.markings)
                for j in range(len(guests)):
                    args = [moved(guests[(j + k) % len(guests)], 100 * (k + 1)) for k in range(n)]
                    tree, edges = graft_all(host, args)
                    assert_glued(tree, edges, host, list(zip(slots, args)))

    def test_contract_matches_flag_contract(self):
        for n in (2, 3, 4):
            for t in enumerate_stable_trees(n):
                assert_contracts(t)

    @settings(max_examples=150, deadline=None)
    @given(nested_forms(4), st.lists(nested_forms(3), min_size=4, max_size=4))
    def test_graft_and_contract_drawn_forms(self, form, guest_forms):
        host = RootedTree.from_nested(form)
        slots = sorted(host.markings, key=_label_key)
        args = [moved(RootedTree.from_nested(f), 100 * (k + 1)) for k, f in enumerate(guest_forms[: len(slots)])]
        tree, edges = graft_all(host, args)
        assert_glued(tree, edges, host, list(zip(slots, args)))
        assert_contracts(host)
        assert_contracts(tree)
        for slot, guest in zip(slots, args):
            tree, edge = _graft(guest, host, host.input_labels[slot])
            assert_glued(tree, (edge,), host, [(slot, guest)])

    def test_enumerated_forms_are_canonical(self):
        for n in range(2, 7):
            for text, form in _stable_forms(tuple(range(1, n + 1)), {}):
                assert _canonical(form) == (text, form)
                assert text == _canon_str(form)

    def test_enumerated_strings_and_order_match_the_serialization(self):
        # the oracle for the strings the enumeration carries: _canon_str of each form
        for n in range(2, 7):
            trees = enumerate_stable_trees(n)
            assert [t.canonical_str() for t in trees] == [_canon_str(t.to_nested()) for t in trees]
            forms = [t.to_nested() for t in trees]
            assert forms == sorted(forms, key=_canon_str)

    def test_built_strings_match_the_serialization(self):
        # compose, forget_marking and renumbered hand over the (string, form) pair they built
        trees = enumerate_stable_trees(3)
        for host in trees:
            for guest in trees:
                tree = compose(host, [guest, RootedTree.unit(), guest])
                for t in [tree, tree.renumbered()] + [forget_marking(tree, m) for m in sorted(tree.markings)]:
                    assert t.canonical_str() == _canon_str(t.to_nested())
                    assert _canonical(t._form) == (t.canonical_str(), t.to_nested())

    def test_a_form_comes_in_only_through_from_nested(self):
        assert not {"form", "canonical"} & set(inspect.signature(RootedTree).parameters)
        assert [slot for slot in RootedTree.__slots__ if "canon" in slot or "nested" in slot] == ["_canon"]
        assert RootedTree.from_nested(((2, 1), ())) == RootedTree.from_nested(((1, 2), ()))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stratum_class_is_product_over_vertices(self, d):
        for n in range(2, 7):
            for stratum in strata_table(d, n):
                tree = stratum.tree
                want = MotClass.one()
                for v in tree.vertices:
                    want = want * stratum_factor_class(d, tree.in_degree(v))
                assert stratum.stratum_class() == want


class TestClassesAndPoints:
    def test_single_line(self):
        assert tree_class(RootedTree.corolla((1, 2)), 1) == MotClass((2, 1))

    def test_two_lines(self):
        t = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        assert tree_class(t, 1) == MotClass((3, 2))

    def test_two_planes(self):
        t = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        assert tree_class(t, 2) == 2 * proj_class(2) - 1

    def test_closed_form(self):
        for n in (2, 3, 4):
            for t in enumerate_stable_trees(n):
                big_n = len(t.vertices)
                for d in (1, 2, 3):
                    assert tree_class(t, d) == big_n * proj_class(d) - (big_n - 1)

    def test_vertex_count(self):
        trees = [t for n in range(2, 7) for t in enumerate_stable_trees(n)]
        for host in enumerate_stable_trees(4):
            for guest in enumerate_stable_trees(3):
                guest = permute_markings(guest, {m: m + 10 for m in guest.markings})
                trees.append(graft(guest, host, host.input_labels[2]))
        for t in trees:
            assert t.vertex_count() == len(t.vertices)

    def test_glued_curves_leave_the_flag_view_unbuilt(self):
        t = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        torify_tree_curve(t)
        tree_class(t, 2)
        c = RootedTree.corolla((1, 2))
        trees = [t, c, compose(t, [c, RootedTree.unit(), c]), forget_marking(t, 2)]
        trees.append(permute_markings(t, {1: 3, 2: 1, 3: 2}))
        for stratum in strata_table(1, 4):
            stratum.stratum_class()
            trees.append(stratum.tree)
        for tree in trees:
            tree.to_json()
        # graft_all finds its slots on the form; only its result's flags are read
        host, args = enumerate_stable_trees(3)[1], [moved(c, 10), moved(c, 20), RootedTree.unit(30)]
        graft_all(host, args)
        # a tree copies and pickles as its form alone
        copies = [copy.copy(t), copy.deepcopy(c), pickle.loads(pickle.dumps(trees[2]))]
        for tree in trees + [host] + args + copies:
            with pytest.raises(AttributeError):
                RootedTree.flags.__get__(tree)

    def test_points(self):
        chain3 = RootedTree.from_nested(((1, 2), (((3, 4), ()), ((5, 6), ()))))
        assert len(chain3.vertices) == 3
        assert tree_points(chain3, 1, 2) == 10
        assert tree_points(RootedTree.corolla((1, 2)), 1, 0) == 2
        assert tree_points(RootedTree.corolla((1, 2)), 2, 1) == 7

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            tree_class(RootedTree.unit(), 1)

    def test_glued_curve_digest(self):
        # sha256 of every glued-curve torification and class for n <= 6, d <= 3
        h = hashlib.sha256()
        for n in range(2, 7):
            for t in enumerate_stable_trees(n):
                h.update(json.dumps(torify_tree_curve(t).to_json()).encode())
                for d in (1, 2, 3):
                    h.update(repr(tree_class(t, d)).encode())
        assert h.hexdigest() == "07a11b706ec78e9cc181030a2b288b970f401d0cc98045fb7716984b65f3de00"


class TestPermute:
    def test_identity(self):
        t = enumerate_stable_trees(3)[1]
        assert permute_markings(t, {1: 1, 2: 2, 3: 3}) == t

    def test_inverse(self):
        t = enumerate_stable_trees(3)[1]
        pi = {1: 2, 2: 3, 3: 1}
        inv = {v: k for k, v in pi.items()}
        assert permute_markings(permute_markings(t, pi), inv) == t

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            permute_markings(RootedTree.corolla((1, 2)), {1: 2})
        with pytest.raises(ValueError):
            permute_markings(RootedTree.corolla((1, 2)), {1: 5, 2: 5})

    def test_action_law(self):
        t = enumerate_stable_trees(4)[7]
        for pi in permutations((1, 2, 3, 4)):
            for rho in [(2, 1, 3, 4), (1, 3, 4, 2)]:
                pid = {i + 1: pi[i] for i in range(4)}
                rhod = {i + 1: rho[i] for i in range(4)}
                composed = {i + 1: rhod[pid[i + 1]] for i in range(4)}
                assert permute_markings(permute_markings(t, pid), rhod) == permute_markings(t, composed)


class TestForget:
    def test_corolla(self):
        assert forget_marking(RootedTree.corolla((1, 2, 3)), 3) == RootedTree.corolla((1, 2))

    def test_child_destabilized(self):
        t = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        assert forget_marking(t, 2) == RootedTree.corolla((1, 3))

    def test_root_destabilized(self):
        # root carries only the child edge after forgetting its single tail
        t = RootedTree.from_nested(((1,), (((2, 3), ()),)))
        assert forget_marking(t, 1) == RootedTree.corolla((2, 3))

    def test_stays_stable(self):
        for n in (3, 4):
            for t in enumerate_stable_trees(n):
                for s in range(1, n + 1):
                    assert forget_marking(t, s).is_stable()

    def test_forget_permute_commutes(self):
        for t in enumerate_stable_trees(4):
            pi = {1: 3, 2: 1, 3: 4, 4: 2}
            for s in (1, 2, 3, 4):
                left = forget_marking(permute_markings(t, pi), pi[s])
                reduced = {k: v for k, v in pi.items() if k != s}
                assert left == permute_markings(forget_marking(t, s), reduced)

    def test_unknown_marking(self):
        with pytest.raises(ValueError):
            forget_marking(RootedTree.corolla((1, 2)), 9)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 26), (5, 236)])
    def test_counts(self, n, count):
        trees = enumerate_stable_trees(n)
        assert len(trees) == count
        assert len(set(trees)) == count
        assert all(t.is_stable() for t in trees)
        assert all(sorted(t.markings) == list(range(1, n + 1)) for t in trees)

    def test_vertex_profile_n4(self):
        sizes = sorted(len(t.vertices) for t in enumerate_stable_trees(4))
        assert sizes.count(1) == 1
        assert sizes.count(2) == 10
        assert sizes.count(3) == 15

    def test_range_error(self):
        with pytest.raises(ValueError):
            enumerate_stable_trees(1)

    def test_deterministic_order(self):
        a = [t.canonical_str() for t in enumerate_stable_trees(4)]
        b = [t.canonical_str() for t in enumerate_stable_trees(4)]
        assert a == b == sorted(a)


class TestStrataSum:
    def test_d1_n3(self):
        assert strata_sum(1, 3) == MotClass((2, 1))

    def test_d1_n4(self):
        assert strata_sum(1, 4) == MotClass((7, 7, 1))

    def test_d2_n2_single_stratum(self):
        assert strata_sum(2, 2) == proj_class(1) == tdn_class(2, 2)

    @pytest.mark.parametrize("d", [1, 2])
    def test_master_oracle_small(self, d):
        for n in range(2, 6):
            assert strata_sum(d, n) == tdn_class(d, n)

    def test_table_matches_sum(self):
        table = strata_table(1, 4)
        assert len(table) == 26
        total = MotClass.zero()
        for stratum in table:
            total = total + stratum.stratum_class()
        assert total == strata_sum(1, 4)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_table_matches_sum_n5(self, d):
        total = MotClass.zero()
        for stratum in strata_table(d, 5):
            total = total + stratum.stratum_class()
        assert total == strata_sum(d, 5)

    def test_descriptor_requires_stable(self):
        with pytest.raises(ValueError):
            StratumDescriptor(RootedTree.unit(), 1)
        # stability is checked before d
        with pytest.raises(ValueError, match="^stratum trees must be stable$"):
            StratumDescriptor(RootedTree.unit(), 0)
        with pytest.raises(ValueError, match="^d must be a positive int$"):
            StratumDescriptor(RootedTree.corolla((1, 2)), 0)

    @pytest.mark.parametrize("tree", ["x", ((1, 2), ()), None])
    def test_descriptor_requires_a_tree(self, tree):
        with pytest.raises(TypeError, match="^stratum trees must be RootedTrees$"):
            StratumDescriptor(tree, 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_lone_descriptor_class_equals_its_table_twin(self, d):
        for stratum in strata_table(d, 5):
            assert StratumDescriptor(stratum.tree, d).stratum_class() == stratum.stratum_class()

    def test_each_stratum_tree_is_walked_once(self, monkeypatch):
        vertices = sum(tree.vertex_count() for tree in enumerate_stable_trees(6))
        calls = []
        inner = treeop._in_degrees
        monkeypatch.setattr(treeop, "_in_degrees", lambda form: calls.append(form) or inner(form))
        for stratum in strata_table(1, 6):
            stratum.stratum_class()
        # one call per vertex; a stability walk plus a class walk made 22,696
        assert len(calls) == vertices == 11348

    def test_table_makes_each_profile_class_once(self, monkeypatch):
        factors = []
        monkeypatch.setattr(treeop, "stratum_factor_class", lambda d, k: factors.append(k) or stratum_factor_class(d, k))
        table = strata_table(2, 6)
        profiles = {tuple(sorted(treeop._in_degrees(s.tree._form))) for s in table}
        assert len(factors) == sum(map(len, profiles))
        assert len({id(s.stratum_class()) for s in table}) == len(profiles)

    @pytest.mark.parametrize("d,n", [(1, 6), (2, 6), (3, 6), (1, 7)])
    def test_boundary_divisors_factor(self, d, n):
        # D_S, the strata with an edge that has exactly S below it, is the image of the operad's composition
        # map from T_{d,n-|S|+1} x T_{d,|S|}, so its class factors (Keel 1992; Chen-Gibney-Krashen 2009)
        got = {}
        for stratum in strata_table(d, n):
            for below in _edge_label_sets(stratum.tree._form):
                got[below] = got.get(below, MotClass.zero()) + stratum.stratum_class()
        want = {
            frozenset(S): tdn_class(d, n - k + 1) * tdn_class(d, k)
            for k in range(2, n)
            for S in combinations(range(1, n + 1), k)
        }
        assert got == want

    @pytest.mark.parametrize("d,n", [(1, 6), (2, 6), (3, 5)])
    def test_the_strata_torify_the_whole_space(self, d, n):
        # one piece per stable tree: the product over its vertices of the open stratum of the vertex's in-degree,
        # times the P^(d-1) of directions for d > 1; the pieces sum to T_{d,n} with a nonnegative class, the
        # descent datum to F_1 of the paper
        directions = DisjointUnion(expr for _, expr in torify_proj_space(d - 1).pieces)
        factors = {}
        for k in range(2, n + 1):
            (_, open_part), = constructible_open_stratum(d, k).pieces
            factors[k] = open_part if d == 1 else Product([directions, open_part])
        pieces = [
            (tree.canonical_str(), Product([factors[k] for k in treeop._in_degrees(tree._form)]))
            for tree in enumerate_stable_trees(n)
        ]
        ct = ConstructibleTorification(pieces)
        assert ct.total_class == tdn_class(d, n)
        assert ct.is_f1_constructible()

    @pytest.mark.parametrize("n", [5, 6])
    def test_graft_realizes_each_boundary_divisor(self, n):
        # grafting a guest tree on S into the tail x of a host tree on the other labels and x gives the strata
        # with an edge that has exactly S below it, each once: the composition map onto the divisor D_S
        x = 0
        shapes = {k: enumerate_stable_trees(k) for k in range(2, n)}
        below = {tree.canonical_str(): _edge_label_sets(tree._form) for tree in enumerate_stable_trees(n)}

        def on(labels):
            return [permute_markings(t, dict(zip(range(1, len(labels) + 1), labels))) for t in shapes[len(labels)]]

        for k in range(2, n):
            for S in combinations(range(1, n + 1), k):
                hosts = on([x] + [m for m in range(1, n + 1) if m not in S])
                got = [graft(guest, host, host.input_labels[x]).canonical_str() for guest in on(S) for host in hosts]
                assert sorted(got) == sorted(text for text, sets in below.items() if frozenset(S) in sets)

    def test_table_checks_n_then_d_before_enumerating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(treeop, "_stable_forms", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="d must be a positive int"):
            strata_table(0, 12)
        assert calls == []
        with pytest.raises(ValueError, match="n must be an int >= 2"):
            strata_table(0, 1)
