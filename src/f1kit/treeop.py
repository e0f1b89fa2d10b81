"""Oriented rooted trees with labeled input tails, and their operad.

A tree is its nested form: a vertex is a pair (inputs, children) of its
input labels and the nested forms of its child subtrees.  The canonical
form sorts the inputs by label and the children by their canonical strings,
each built once from its children's in the walk that sorts them; the JSON
form is ``{"inputs": [...], "children": [...]}``.  Equality is isomorphism
respecting the root and the input labels, decided by the canonical string.
Composition, forgetting a marking, relabeling, grafting, edge contraction
and the strata all work on forms.

The flag-level view is derived from the form on demand: a set of half-edges
(flags), a boundary map flag -> vertex, and an involution pairing flags into
edges (fixed points are tails).  One involution-fixed flag is the root tail,
the output; all other tails are inputs and carry marking labels.  Vertices
and flags are numbered in preorder of the form the tree holds, so flag ids
read off a tree name the same flags in that tree only.  A tree can also be
given by flag data, which is checked and turned into its form.

Trees are immutable and every operation returns a new tree, so values can
be shared freely.
"""

import json
from collections.abc import Mapping
from itertools import combinations, product
from math import comb, prod
from types import MappingProxyType

from .motive import MotClass, _Frozen, _HASHABLE, _check_int, _check_kind, _json_key, blowup_class, proj_class
from .genseries import stratum_factor_class
from .torif import _partitions


def _label_key(x):
    # total order for mixed int/str label sets
    return (x.__class__.__name__, x)


# the flag-level view, built from the form on first use, in _flag_view's order
_FLAG_DATA = ("flags", "vertices", "boundary", "involution", "root_tail", "input_labels", "_flags_at", "_depth", "_out_flag")


class RootedTree(_Frozen):
    # the form, then its (canonical string, canonical form) pair: the slots a constructor fills
    __slots__ = ("_form", "_canon") + _FLAG_DATA

    def __init__(self, flags=None, vertices=None, boundary=None, involution=None, root_tail=None,
                 input_labels=None, *, _form=None, _canon=None):
        """A tree from flag data, which is checked and made a form; from_nested builds one from a nested form.

        The keywords are f1kit's own, for forms it has already checked: ``_form`` is a nested form with
        distinct labels, ``_canon`` the (canonical string, canonical form) pair of a tree built canonical.
        """
        if _canon is not None:
            self._fill(_canon[1], _canon)
        else:
            if _form is None:
                _form = _form_of_flags(flags, vertices, boundary, involution, root_tail, input_labels)
            self._fill(_form)

    def __getattr__(self, name):
        # reached only for a slot not yet set: the canonical pair or the flag view of the form
        if name == "_canon":
            self._keep(name, _canonical(self._form))
        elif name in _FLAG_DATA:
            for key, value in zip(_FLAG_DATA, _flag_view(self._form)):
                self._keep(key, value)
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def __reduce__(self):
        # not _Frozen's: a copy keeps this tree's own form, so its flag ids survive, and builds its flag view if needed
        return type(self).from_nested, (self._form,)

    # -- basic structure -------------------------------------------------

    @property
    def root_vertex(self):
        return self.boundary[self.root_tail]

    @property
    def markings(self):
        return frozenset(_labels(self._form))

    def input_count(self):
        return len(self.markings)

    def edges(self):
        return {frozenset((f, g)) for f, g in self.involution.items() if f != g}

    def in_degree(self, v):
        """Incoming tails plus edges from children; the outgoing flag is excluded."""
        return len(self._flags_at[v]) - 1

    def depth(self, v):
        """Number of edges between v and the root vertex."""
        return self._depth[v]

    def children(self, v):
        """Child vertices of v, via its edges other than the outgoing one (listed first)."""
        return [self.boundary[self.involution[f]] for f in self._flags_at[v][1:] if self.involution[f] != f]

    def mother(self, v):
        if v == self.root_vertex:
            return None
        return self.boundary[self.involution[self._out_flag[v]]]

    def vertex_count(self):
        """Number of vertices, read off the form without building the flag view."""
        return len(_in_degrees(self._form))

    def is_stable(self):
        """Every vertex carries at least two incoming flags (tails or child edges)."""
        return all(k >= 2 for k in _in_degrees(self._form))

    # -- canonical form and serialization ----------------------------------

    def to_nested(self):
        return self._canon[1]

    def canonical_str(self):
        return self._canon[0]

    # not _Frozen's: trees are equal up to isomorphism, by canonical string
    def __eq__(self, other):
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self.canonical_str() == other.canonical_str()

    def __hash__(self):
        return hash(self.canonical_str())

    def __repr__(self):
        return "RootedTree(%s)" % self.canonical_str()

    def renumbered(self):
        """Same tree with small consecutive internal labels."""
        return RootedTree(_canon=self._canon)

    def to_json(self):
        def conv(form):
            return {"inputs": list(form[0]), "children": [conv(c) for c in form[1]]}

        return conv(self.to_nested())

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_nested(cls, form):
        """The tree with this nested form; inputs and children in any order."""
        try:
            labels = _labels(form)
        except (TypeError, ValueError):
            labels = None  # some vertex is not an (inputs, children) pair of collections
        labels = _check_kind("nested forms", labels, list, "(inputs, children) pairs of collections")
        # one hash of the tuple checks every label
        if len(set(_check_kind("input labels", tuple(labels), _HASHABLE, "hashable"))) != len(labels):
            raise ValueError("input labels must biject onto the non-root tails")
        return cls(_form=form)

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)

        def conv(node):
            inputs = _check_kind("inputs", _json_key(node, "inputs"), object, "a list", each=True)
            children = _check_kind("children", node.get("children", ()), object, "a list", each=True)
            return inputs, tuple(map(conv, children))

        return cls.from_nested(conv(obj))

    @classmethod
    def corolla(cls, markings):
        """Single vertex with the given input labels."""
        markings = _check_kind("markings", markings, _HASHABLE, "an iterable of hashable labels", each=True)
        return cls.from_nested(_vertex(set(markings), ())[1])

    @classmethod
    def unit(cls, label=1):
        """The one-input, one-output chain; composition identity."""
        return cls.corolla((label,))


def _tree(value, name="trees"):
    """value, if it is a RootedTree: the check of every tree argument's kind."""
    return _check_kind(name, value, RootedTree, "RootedTrees")


# -- nested forms -------------------------------------------------------------


def _vertex(inputs, subs):
    """(canonical string, canonical form) of a vertex with these inputs and (string, form) pairs of children.

    The inputs sort by label and the children by string: distinct labels make distinct strings.
    """
    inputs = tuple(sorted(inputs, key=_label_key))
    texts, forms = zip(*sorted(subs)) if subs else ((), ())
    return "(%s|%s)" % (",".join(map(repr, inputs)), ";".join(texts)), (inputs, forms)


def _canonical(form, pi=None):
    """(canonical string, canonical form) of a nested form, each label m renamed pi[m] if pi is given."""
    inputs, subs = form
    if pi is not None:
        inputs = [pi[m] for m in inputs]
    return _vertex(inputs, [_canonical(sub, pi) for sub in subs])


def _labels(form):
    """Input labels of a nested form in preorder, the order of their flags."""
    inputs, subs = form
    out = list(inputs)
    for sub in subs:
        out += _labels(sub)
    return out


def _in_degrees(form):
    """In-degree (inputs plus children) of every vertex of a nested form."""
    inputs, subs = form
    out = [len(inputs) + len(subs)]
    for sub in subs:
        out += _in_degrees(sub)
    return out


def _flag_view(form):
    """The flag view of a nested form, in one preorder pass, as listed in _FLAG_DATA.

    Flag 0 is the root tail.  Each vertex numbers its input tails, then for
    each child the flag at the vertex and the child's outgoing flag, before
    the child's own flags.
    """
    boundary = {}
    involution = {0: 0}
    input_labels = {}
    flags_at = {}
    depth = {}
    out_flag = {}

    def build(node, out, d):
        inputs, subs = node
        v = len(depth)
        boundary[out] = v
        at = flags_at[v] = [out]
        depth[v] = d
        out_flag[v] = out
        for m in inputs:
            f = len(boundary)
            boundary[f] = v
            involution[f] = f
            input_labels[m] = f
            at.append(f)
        for sub in subs:
            up = len(boundary)
            boundary[up] = v
            involution[up], involution[up + 1] = up + 1, up
            at.append(up)
            build(sub, up + 1, d + 1)

    build(form, 0, 0)
    boundary, involution, input_labels = map(MappingProxyType, (boundary, involution, input_labels))
    return frozenset(boundary), frozenset(depth), boundary, involution, 0, input_labels, flags_at, depth, out_flag


def _form_of_flags(flags, vertices, boundary, involution, root_tail, input_labels):
    """The form of checked flag data.

    A depth-first walk from the root tail lists each vertex's inputs and
    children in the order of ``boundary``, so the flag data of a tree gives
    back its form; ids are only hashed, never compared.
    """
    flags = frozenset(_check_kind("flags", flags, _HASHABLE, "a collection of hashable ids", each=True))
    vertices = frozenset(_check_kind("vertices", vertices, _HASHABLE, "a collection of hashable ids", each=True))
    boundary, involution, input_labels = (
        dict(_check_kind("flag maps", m, Mapping, "mappings")) for m in (boundary, involution, input_labels))
    _check_kind("flag map values", [*boundary.values(), *involution.values(), *input_labels.values()], _HASHABLE,
                "hashable ids", each=True)
    _check_kind("root tail", root_tail, _HASHABLE, "a hashable id")

    if set(involution) != flags or set(boundary) != flags:
        raise ValueError("boundary and involution must be defined exactly on the flags")
    for f, g in involution.items():
        if g not in flags or involution[g] != f:
            raise ValueError("involution must square to the identity")
    if not set(boundary.values()) <= vertices:
        raise ValueError("boundary image must lie in the vertex set")
    if root_tail not in flags or involution[root_tail] != root_tail:
        raise ValueError("root tail must be an involution-fixed flag")

    tails = {f for f in flags if involution[f] == f}
    marked = set(input_labels.values())
    if len(marked) != len(input_labels) or marked != tails - {root_tail}:
        raise ValueError("input labels must biject onto the non-root tails")

    edges = {frozenset((f, involution[f])) for f in flags if involution[f] != f}
    if len(vertices) != len(edges) + 1:
        raise ValueError("flag data is not a tree (vertex/edge count)")

    flags_at = {v: [] for v in vertices}
    for f, v in boundary.items():
        flags_at[v].append(f)
    label = {f: m for m, f in input_labels.items()}
    seen = set()

    def walk(out):
        v = boundary[out]
        if v in seen:
            # a cycle: with one vertex more than edges, some vertex is cut off
            raise ValueError("flag data is not a tree (disconnected)")
        seen.add(v)
        at = flags_at[v]
        inputs = tuple(label[f] for f in at if f in label)
        return (inputs, tuple(walk(involution[f]) for f in at if f != out and involution[f] != f))

    form = walk(root_tail)
    if len(seen) != len(vertices):
        raise ValueError("flag data is not a tree (disconnected)")
    return form


# -- elementary morphisms ---------------------------------------------------


def graft(tau, sigma, input_flag):
    """Plug the output of tau into the given input tail of sigma."""
    tree, _ = _graft(tau, sigma, input_flag)
    return tree


def _graft(tau, sigma, input_flag):
    tau, sigma = _tree(tau), _tree(sigma)
    if _check_kind("graft target flag", input_flag, _HASHABLE, "a hashable id") not in sigma.flags:
        raise ValueError("graft target flag is not a flag of the host tree")
    if input_flag == sigma.root_tail:
        raise ValueError("cannot graft into the root tail")
    if sigma.involution[input_flag] != input_flag:
        raise ValueError("graft target must be a tail, not an edge flag")
    consumed = next(m for m, f in sigma.input_labels.items() if f == input_flag)
    if tau.markings & (sigma.markings - {consumed}):
        raise ValueError("marking labels collide; relabel before grafting")
    tree, (edge,) = _plugged(sigma, {consumed: tau})
    return tree, edge


def _plugged(host, guests):
    """Graft guests[m] into the input m of host, for every key m.

    Each guest's form becomes a child of the vertex holding m, after that
    vertex's own children.  Returns the tree and the new edges, read off its
    flag view, in the order of guests.
    """
    roots = {}
    count = 0

    def plug(node):
        nonlocal count
        count += 1
        subs = [plug(sub) for sub in node[1]]
        for m in node[0]:
            if m in guests:
                # preorder puts the guest's root after every vertex so far
                roots[m] = count
                count += guests[m].vertex_count()
                subs.append(guests[m]._form)
        return (tuple(m for m in node[0] if m not in guests), tuple(subs))

    tree = RootedTree(_form=plug(host._form))
    out = tree._out_flag
    return tree, tuple(frozenset((out[roots[m]], tree.involution[out[roots[m]]])) for m in guests)


def contract_edge(tau, edge):
    """Contract a two-flag involution orbit, merging its endpoints.

    The child vertex is spliced into its mother: its inputs join hers and its
    children take its place, so later vertices move down one in preorder.
    """
    tau, edge = _tree(tau), frozenset(_check_kind("edge", edge, _HASHABLE, "a pair of flags", each=True))
    if len(edge) != 2:
        raise ValueError("an edge consists of two distinct flags")
    if not edge <= tau.flags:
        raise ValueError("edge flags do not belong to the tree")
    f, g = sorted(edge, key=lambda x: tau._depth[tau.boundary[x]])
    if tau.involution[f] != g:
        raise ValueError("flags are not matched by the involution (tails cannot be contracted)")
    drop = tau.boundary[g]  # child side
    count = 0

    def splice(node):
        nonlocal count
        count += 1
        inputs, subs = list(node[0]), []
        for sub in node[1]:
            if count == drop:
                count += 1
                inputs += sub[0]
                subs += [splice(s) for s in sub[1]]
            else:
                subs.append(splice(sub))
        return (tuple(inputs), tuple(subs))

    return RootedTree(_form=splice(tau._form))


def _slots(tau, args):
    """tau's markings in sorted label order, and args as a tuple of the trees that fill them, one each."""
    slots = sorted(_tree(tau).markings, key=_label_key)
    args = _check_kind("trees", args, RootedTree, "RootedTrees", each=True)
    if len(args) != len(slots):
        raise ValueError("arity mismatch: tree takes %d inputs, got %d" % (len(slots), len(args)))
    return slots, args


def graft_all(tau, args):
    """Graft args[k] into the k-th input of tau (inputs in sorted label order).

    Returns the intermediate grafted tree together with the tuple of new
    edges, one per argument.  Marking labels of the args must be pairwise
    disjoint.
    """
    slots, args = _slots(tau, args)
    seen = set()
    for a in args:
        if a.markings & seen:
            raise ValueError("argument marking labels collide")
        seen |= a.markings
    return _plugged(tau, dict(zip(slots, args)))


def compose(tau, args):
    """Operadic composition: graft every argument, then contract the new edges.

    Argument k is plugged into the k-th input of tau (inputs ordered by
    label) after its markings are relabeled to the k-th block of
    1..sum(inputs), so the result has inputs labeled 1..sum(inputs).  On
    nested forms: the root contents of argument k join the vertex of the
    k-th input.
    """
    contents = {}
    offset = 0
    for slot, a in zip(*_slots(tau, args)):
        old = sorted(a.markings, key=_label_key)
        pi = {o: offset + i + 1 for i, o in enumerate(old)}
        inputs, subs = a._form
        contents[slot] = [pi[m] for m in inputs], [_canonical(sub, pi) for sub in subs]
        offset += len(old)
    return RootedTree(_canon=_substituted(tau._form, contents))


def _substituted(form, contents):
    """(canonical string, canonical form) of form with each input m replaced by contents[m], a pair of root
    inputs and (string, form) pairs of children."""
    inputs, subs = [], [_substituted(sub, contents) for sub in form[1]]
    for m in form[0]:
        more_inputs, more_subs = contents[m]
        inputs += more_inputs
        subs += more_subs
    return _vertex(inputs, subs)


def permute_markings(tau, pi):
    """Relabel the input tails by the bijection pi (a dict on the markings).

    The vertex and flag ids stay those of tau.
    """
    tau, pi = _tree(tau), _check_kind("pi", pi, Mapping, "a mapping")
    _check_kind("pi values", tuple(pi.values()), _HASHABLE, "hashable labels")
    if set(pi) != tau.markings:
        raise ValueError("permutation domain does not match the marking set")
    if len(set(pi.values())) != len(pi):
        raise ValueError("relabeling is not injective")
    return RootedTree(_form=_relabeled(tau._form, pi))


def _relabeled(form, pi):
    # same order, so the same preorder numbering of vertices and flags
    inputs, subs = form
    return (tuple(pi[m] for m in inputs), tuple(_relabeled(sub, pi) for sub in subs))


def forget_marking(tau, s):
    """Drop one marking and contract any vertex that becomes unstable.

    A destabilized non-root vertex is contracted into its mother; a
    destabilized root with a child is merged with it.  A single bare vertex
    is returned as is.
    """
    if _check_kind("marking", s, _HASHABLE, "a hashable label") not in _tree(tau).markings:
        raise ValueError("unknown marking %r" % (s,))
    inputs, subs = _spliced(tau._form, s)
    return RootedTree(_canon=subs[0] if not inputs and len(subs) == 1 else _vertex(inputs, subs))


def _spliced(form, s):
    """Root inputs and canonical child pairs of form without the label s, leaves first splicing
    every non-root vertex left with fewer than two inputs and children into its mother."""
    inputs = [m for m in form[0] if m != s]
    subs = []
    for sub in form[1]:
        sub_inputs, sub_subs = _spliced(sub, s)
        if len(sub_inputs) + len(sub_subs) < 2:
            inputs += sub_inputs
            subs += sub_subs
        else:
            subs.append(_vertex(sub_inputs, sub_subs))
    return inputs, subs


# -- classes and point counts ----------------------------------------------


def tree_class(tau, d):
    """Class of the tree of projective d-spaces with shape tau.

    Computed by gluing root to leaf: every vertex after the root blows up a
    point of the current variety (codimension d) and glues a fresh P^d along
    its hyperplane to the exceptional divisor.  Equals N [P^d] - (N-1) for N
    vertices; for d = 1 that is N T + N + 1.
    """
    tau, d = _tree(tau), _check_int("d", d, 1)
    if not tau.is_stable():
        raise ValueError("unstable tree")
    pd = proj_class(d)
    hyper = proj_class(d - 1)
    total = pd
    for _ in range(tau.vertex_count() - 1):
        total = blowup_class(total, MotClass.one(), d) + pd - hyper
    return total


def tree_points(tau, d, m):
    """Point count of the glued tree over the degree-m extension.

    For d = 1 a tree with N vertices has N(m+1) + 1 points.
    """
    return tree_class(tau, d).count_points(m)


class StratumDescriptor(_Frozen):
    """A boundary stratum: a stable tree together with the ambient dimension."""

    __slots__ = ("tree", "d", "_class")

    def __init__(self, tree, d, _classes=None):
        """_classes maps a sorted in-degree profile to its class; strata_table shares one per call."""
        profile = tuple(sorted(_in_degrees(_tree(tree, "stratum trees")._form)))
        if profile[0] < 2:
            raise ValueError("stratum trees must be stable")
        d = _check_int("d", d, 1)
        classes = {} if _classes is None else _classes
        if profile not in classes:
            classes[profile] = prod(stratum_factor_class(d, k) for k in profile)
        self._fill(tree, d, classes[profile])

    def _args(self):
        # tree and d alone: a load makes the class again, so no pickle stores it
        return self.tree, self.d

    def stratum_class(self):
        """Product of stratum_factor_class(d, k) over the in-degrees k of the vertices."""
        return self._class


# -- enumeration and the strata decomposition --------------------------------


def _stable_forms(labels, table):
    """(canonical string, nested form) of every stable tree with these input labels, sorted.

    Strings are built from the children's and are distinct, so the pairs sort by
    string alone.  table holds the lists of the smaller label sets for one call.
    """
    if labels not in table:
        out = table[labels] = []
        for r in range(len(labels) + 1):
            for root_inputs in combinations(labels, r):
                head = "(%s|" % ",".join(map(repr, root_inputs))
                rest = tuple(sorted(set(labels) - set(root_inputs), key=_label_key))
                for blocks in _partitions(rest):
                    # each block is a child subtree, which needs >= 2 inputs
                    if len(root_inputs) + len(blocks) < 2 or any(len(b) < 2 for b in blocks):
                        continue
                    options = [_stable_forms(tuple(sorted(b, key=_label_key)), table) for b in blocks]
                    for chosen in product(*options):
                        texts, subs = zip(*sorted(chosen)) if chosen else ((), ())
                        # not _vertex: root_inputs is in label order already; re-sorting copies it per form
                        out.append((head + ";".join(texts) + ")", (root_inputs, subs)))
        out.sort()
    return table[labels]


def enumerate_stable_trees(n):
    """All stable rooted trees with inputs labeled 1..n, each exactly once."""
    return [RootedTree(_canon=pair) for pair in _stable_forms(tuple(range(1, _check_int("n", n, 2) + 1)), {})]


def strata_sum(d, n):
    """Total class of the stratification by stable trees.

    The sum, over every stable tree with n inputs, of the product over
    vertices of w_k = stratum_factor_class(d, k) for the vertex's in-degree
    k.  Weighted stable trees satisfy the species equation

        F = X + sum_{k>=2} w_k F^k / k!,

    so with F = sum_m a_m X^m / m! the coefficients are a_1 = 1 and
    a_m = sum_{k=2..m} w_k B_{m,k}, where the partial Bell polynomials obey
    B_{m,k} = sum_i C(m-1, i-1) a_i B_{m-i,k-1}, B_{0,0} = 1, B_{m,1} = a_m.
    No tree is listed; strata_table and the strata command still enumerate
    them.  Equals tdn_class(d, n): the strata partition the compactified
    space.
    """
    d, n = _check_int("d", d, 1), _check_int("n", n, 2)
    weights = {k: stratum_factor_class(d, k) for k in range(2, n + 1)}
    a = [MotClass.zero(), MotClass.one()]
    bell = [[MotClass.one()], [MotClass.zero(), MotClass.one()]]  # bell[m][k] = B_{m,k}
    for m in range(2, n + 1):
        row = [MotClass.zero(), None]
        a_m = MotClass.zero()
        for k in range(2, m + 1):
            b_mk = MotClass.zero()
            for i in range(1, m - k + 2):
                b_mk = b_mk + comb(m - 1, i - 1) * a[i] * bell[m - i][k - 1]
            row.append(b_mk)
            a_m = a_m + weights[k] * b_mk
        row[1] = a_m
        a.append(a_m)
        bell.append(row)
    return a[n]


def strata_table(d, n):
    """One StratumDescriptor per stable tree with n inputs, in canonical order."""
    n, d, classes = _check_int("n", n, 2), _check_int("d", d, 1), {}
    return [StratumDescriptor(tree, d, classes) for tree in enumerate_stable_trees(n)]
