"""Expression calculus for torifications and their constructible closure.

Expressions are built from tori by finite products, disjoint unions, and
complements.  A complement carries an assignment sending each atomic piece
of the removed expression to an atomic piece of the ambient one of strictly
larger dimension; that structural rule stands in for embeddability, and all
the decompositions produced here satisfy it.

The atoms of an expression are the constituent cells with their dimensions:
a torus is one atom, atoms multiply through products (dimensions add along
the product path), unions concatenate atoms, and a complement exposes the
atoms of its ambient expression.  Each node's atoms, class and
complement-rule problems are set once, when it is built, from its children's;
atoms, validate and eval_class only read them.  constructible_open_stratum
shares one chain object per block count among its set partitions.

A ConstructibleTorification is a labeled list of expressions; its class is
the sum of the pieces' classes, and the decomposition is declared
constructible when that total is a nonnegative combination of torus powers.
"""

from itertools import product as iproduct
from math import prod

from .genseries import open_stratum_class
from .motive import MotClass, _Frozen, _HASHABLE, _check_int, _check_kind, _json_key


class TorifExpr(_Frozen):
    """An immutable expression node: its own slots plus the data derived from
    its children's, and its hash, set once by the constructor."""

    __slots__ = ("_atoms", "_class", "_problems", "_hash")

    def _store(self, values, atoms, cls, problems):
        # values fill the subclass's own slots; problems are (path suffix, message); the hash is _key()'s
        self._fill(*values, atoms, cls, problems, hash((type(self).__name__,) + values))

    def _args(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self):
        return (type(self).__name__,) + self._args()

    # not _Frozen's: the stored hash and `self is other` settle a comparison before it walks two large builds
    def __eq__(self, other):
        if not isinstance(other, TorifExpr):
            return NotImplemented
        return self is other or (self._hash == other._hash and self._key() == other._key())

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%s.from_json(%r)" % (type(self).__name__, self.to_json())


def _located(steps):
    """Problems of the (path step, child) pairs, each path prefixed by its step."""
    return tuple((step + suffix, msg) for step, child in steps for suffix, msg in child._problems)


class Torus(TorifExpr):
    __slots__ = ("dim",)

    def __init__(self, dim):
        dim = _check_int("torus dimension", dim, 0)
        self._store((dim,), (dim,), MotClass.torus(dim) if dim else MotClass.one(), ())

    def to_json(self):
        return {"op": "torus", "dim": self.dim}


class DisjointUnion(TorifExpr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = _check_kind("union parts", parts, TorifExpr, "expressions", each=True)
        self._store(
            (parts,),
            tuple(a for p in parts for a in p._atoms),
            sum((p._class for p in parts), MotClass.zero()),
            _located((".parts[%d]" % i, p) for i, p in enumerate(parts)),
        )

    def to_json(self):
        return {"op": "union", "parts": [p.to_json() for p in self.parts]}


class Product(TorifExpr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = _check_kind("product factors", factors, TorifExpr, "expressions", each=True)
        self._store(
            (factors,),
            tuple(sum(combo) for combo in iproduct(*(f._atoms for f in factors))),
            prod((f._class for f in factors), start=MotClass.one()),
            _located((".factors[%d]" % i, f) for i, f in enumerate(factors)),
        )

    def to_json(self):
        return {"op": "product", "factors": [f.to_json() for f in self.factors]}


class Complement(TorifExpr):
    __slots__ = ("ambient", "removed", "assignment")

    def __init__(self, ambient, removed, assignment=None):
        _check_kind("ambient and removed", (ambient, removed), TorifExpr, "expressions", each=True)
        amb, rem = ambient._atoms, removed._atoms
        if assignment is None:
            assignment = _auto_assignment(amb, rem)
        else:
            assignment = _check_kind("assignment", assignment, object, "an iterable of ints or None", each=True)
            if len(assignment) != len(rem):
                raise ValueError("assignment must cover every atom of the removed expression")
            assignment = tuple(j if j is None else _check_int("assignment entries", j, None, "ints or None")
                               for j in assignment)
        problems = []
        for i, (dim, j) in enumerate(zip(rem, assignment)):
            if j is None or not (0 <= j < len(amb)):
                problems.append(("", "removed atom %d (dim %d) has no ambient atom" % (i, dim)))
            elif amb[j] <= dim:
                problems.append(
                    ("", "removed atom %d (dim %d) assigned to ambient atom %d (dim %d), not strictly larger"
                     % (i, dim, j, amb[j]))
                )
        problems += _located(((".ambient", ambient), (".removed", removed)))
        self._store((ambient, removed, assignment), amb, ambient._class - removed._class, tuple(problems))

    def to_json(self):
        return {
            "op": "complement",
            "ambient": self.ambient.to_json(),
            "removed": self.removed.to_json(),
            "assignment": [a for a in self.assignment],
        }


def expr_from_json(obj):
    op = _json_key(obj, "op")
    if op == "torus":
        return Torus(_json_key(obj, "dim"))
    if op == "union":
        parts = _check_kind("parts", _json_key(obj, "parts"), object, "a list", each=True)
        return DisjointUnion(map(expr_from_json, parts))
    if op == "product":
        factors = _check_kind("factors", _json_key(obj, "factors"), object, "a list", each=True)
        return Product(map(expr_from_json, factors))
    if op == "complement":
        return Complement(
            expr_from_json(_json_key(obj, "ambient")),
            expr_from_json(_json_key(obj, "removed")),
            obj.get("assignment"),
        )
    raise ValueError("unknown expression op %r" % (op,))


def atoms(expr):
    """Dimensions of the constituent cells, in a fixed traversal order."""
    return _check_kind("expr", expr, TorifExpr, "an expression")._atoms


def dimension(expr):
    """Max atom dimension; -1 for an expression with no atoms."""
    dims = atoms(expr)
    return max(dims) if dims else -1


def _auto_assignment(amb, rem):
    """Each removed atom goes to the first largest ambient atom; None marks a
    removed atom that no ambient atom is strictly larger than."""
    top = amb.index(max(amb)) if amb else None
    return tuple(top if top is not None and amb[top] > dim else None for dim in rem)


def validate(expr):
    """Check the strict-dimension complement rule at every complement.

    Returns (ok, diagnostics), each diagnostic located by its path from the
    root "$"; never raises.
    """
    if not isinstance(expr, TorifExpr):
        return (False, ["$: not an expression"])
    problems = ["$%s: %s" % p for p in expr._problems]
    return (not problems, problems)


def eval_class(expr):
    """Class of the expression: tori to T powers, unions to sums, products to
    products, complements to differences."""
    ok, problems = validate(_check_kind("expr", expr, TorifExpr, "an expression"))
    if not ok:
        raise ValueError("invalid complement assignment: " + "; ".join(problems))
    return expr._class


class ConstructibleTorification(_Frozen):
    """Labeled pieces plus their cached total class."""

    __slots__ = ("pieces", "total_class")

    def __init__(self, pieces):
        pairs = _check_kind("torification pieces", pieces, (tuple, list), "(label, expression) pairs",
                            each=True, size=2)
        pieces = tuple((str(label), expr) for label, expr in pairs)
        _check_kind("torification pieces", [expr for _, expr in pairs], TorifExpr, "expressions", each=True)
        labels = [label for label, _ in pieces]
        if len(set(labels)) != len(labels):
            raise ValueError("piece labels must be distinct")
        total = MotClass.zero()
        for _, expr in pieces:
            total = total + eval_class(expr)
        self._fill(pieces, total)

    def _args(self):
        return (self.pieces,)

    def labels(self):
        return [label for label, _ in self.pieces]

    def piece(self, label):
        for lab, expr in self.pieces:
            if lab == label:
                return expr
        raise KeyError(label)

    def is_f1_constructible(self):
        return self.total_class.is_effective()

    def atom_dims(self):
        """Multiset of atom dimensions across all pieces, sorted."""
        dims = []
        for _, expr in self.pieces:
            dims.extend(atoms(expr))
        return tuple(sorted(dims))

    def __repr__(self):
        return "ConstructibleTorification(%d pieces, class %s)" % (len(self.pieces), self.total_class)

    def to_json(self):
        return {
            "pieces": [{"label": lab, "expr": expr.to_json()} for lab, expr in self.pieces],
            "class": self.total_class.to_json(),
        }


# -- standard decompositions -------------------------------------------------


def torify_proj_space(d):
    """Cellular torification of projective d-space.

    Cell k splits into its coordinate tori, one per subset: 2^0 + ... + 2^d
    atomic tori in total, with class sum_k (T+1)^k.
    """
    pieces = []
    for k in range(_check_int("d", d, 0) + 1):
        for mask in range(2**k):
            pieces.append(("cell%d:t%d" % (k, mask), Torus(bin(mask).count("1"))))
    return ConstructibleTorification(pieces)


def affine_space_expr(d):
    """Affine d-space as the product of d copies of (point + torus)."""
    return Product([DisjointUnion([Torus(0), Torus(1)]) for _ in range(_check_int("d", d, 0))])


def affine_minus_points(d, r):
    """Affine d-space with r points removed, as a single expression.

    For d = 1 one of the removed points is taken to be the cell point, so
    the expression is the 1-torus minus r - 1 points; for d >= 2 the points
    are removed from the product cell structure.
    """
    d, r = _check_int("d", d, 1), _check_int("r", r, 0)
    if d == 1:
        if r == 0:
            return DisjointUnion([Torus(0), Torus(1)])
        if r == 1:
            return Torus(1)
        if r == 2:
            return Complement(Torus(1), Torus(0))
        return Complement(Torus(1), DisjointUnion([Torus(0)] * (r - 1)))
    if r == 0:
        return affine_space_expr(d)
    return Complement(affine_space_expr(d), DisjointUnion([Torus(0)] * r))


def torify_tree_curve(tau):
    """Constructible torification of a stable tree of projective lines.

    The root component contributes two points and a torus; every other
    component loses one point to the gluing node, contributing a point and a
    torus.  The class of N glued lines is N T + N + 1.
    """
    from .treeop import _tree  # treeop imports this module, so the tree kind is read at call time

    if not _tree(tau).is_stable():
        raise ValueError("unstable tree")
    pieces = [("v0:p0", Torus(0)), ("v0:p1", Torus(0)), ("v0:gm", Torus(1))]
    for i in range(1, tau.vertex_count()):
        pieces.append(("v%d:p" % i, Torus(0)))
        pieces.append(("v%d:gm" % i, Torus(1)))
    return ConstructibleTorification(pieces)


def _partitions(items):
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for tail in _partitions(rest):
        yield ((first,),) + tail
        for i, block in enumerate(tail):
            yield tail[:i] + (block + (first,),) + tail[i + 1 :]


def constructible_open_stratum(d, n):
    """Expression for the configuration stratum as one constructible piece.

    Models a product of n - 2 punctured affine d-spaces with its diagonal
    locus removed: the locus where the coordinates are not pairwise distinct
    is the disjoint union, over non-discrete set partitions, of injective
    configurations, and those are chains of punctured affine spaces.  The
    class equals open_stratum_class(d, n); n = 2 is the empty product.
    """
    d, n = _check_int("d", d, 1), _check_int("n", n, 2)
    m = n - 2
    if m == 0:
        expr = Product(())
    elif m == 1:
        expr = affine_minus_points(d, 2)
    else:
        ambient = Product([affine_minus_points(d, 2) for _ in range(m)])
        # a partition's chain depends only on its block count k; the discrete
        # partition (k = m) is the complement itself
        chain = {k: Product([affine_minus_points(d, 2 + i) for i in range(k)]) for k in range(1, m)}
        removed = [chain[len(blocks)] for blocks in _partitions(range(m)) if len(blocks) < m]
        expr = Complement(ambient, DisjointUnion(removed))
    ct = ConstructibleTorification([("stratum", expr)])
    if ct.total_class != open_stratum_class(d, n):
        raise AssertionError("stratum expression class drifted from the product formula")
    return ct


def product_torification(a, b):
    """Pairwise products of pieces, labeled '<left>x<right>'."""
    a, b = _check_kind("torifications", (a, b), ConstructibleTorification, "ConstructibleTorifications", each=True)
    pieces = []
    for la, ea in a.pieces:
        for lb, eb in b.pieces:
            pieces.append(("%sx%s" % (la, lb), Product([ea, eb])))
    return ConstructibleTorification(pieces)


# -- complementedness and blowups ---------------------------------------------


def _normalize_selection(ct, sub):
    """Selection = mapping label -> None (whole piece) or a proper part."""
    known = set(_check_kind("torifications", ct, ConstructibleTorification, "ConstructibleTorifications").labels())
    if isinstance(sub, dict):
        sel = dict(sub)
    else:
        sel = dict.fromkeys(_check_kind("selection", sub, _HASHABLE, "an iterable of labels", each=True))
    for label in sel:
        if label not in known:
            raise ValueError("selection names unknown piece %r" % (label,))
    return sel


def is_strongly_complemented(ct, sub):
    """True iff the selected locus is a union of whole pieces.

    Then both the locus and its complement inherit decompositions from ct.
    A selection entry naming a proper part of a piece (a sublocus that does
    not fill its piece) breaks the condition.
    """
    sel = _normalize_selection(ct, sub)
    return all(part is None for part in sel.values())


def selection_class(ct, sub):
    sel = _normalize_selection(ct, sub)
    total = MotClass.zero()
    for label, part in sel.items():
        total = total + (eval_class(ct.piece(label)) if part is None else eval_class(part))
    return total


def blowup_decomposition(ct, center, codim):
    """Blow up along a strongly complemented center.

    The center pieces are replaced by their products with the torified
    exceptional projective space of dimension codim - 1; everything else is
    kept.  The total class obeys the blowup formula exactly.
    """
    codim = _check_int("codimension", codim, 1)
    sel = _normalize_selection(ct, center)
    if not is_strongly_complemented(ct, sel):
        raise ValueError("center is not strongly complemented")
    exceptional = torify_proj_space(codim - 1)
    pieces = []
    for label, expr in ct.pieces:
        if label in sel:
            for elab, eexpr in exceptional.pieces:
                pieces.append(("%s*E[%s]" % (label, elab), Product([expr, eexpr])))
        else:
            pieces.append((label, expr))
    return ConstructibleTorification(pieces)


def equiv_shadow(a, b, level):
    """Combinatorial shadow of torification equivalence.

    strong: the labeled piece lists agree exactly (the identity map is a
    piece-to-piece match).  weak: the multisets of atomic dimensions agree
    and the total classes agree.  Only the shadow is decided here; witness
    isomorphisms are out of reach of the combinatorial data.
    """
    _check_kind("torifications", (a, b), ConstructibleTorification, "ConstructibleTorifications", each=True)
    if level == "strong":
        return sorted(a.pieces, key=lambda p: p[0]) == sorted(b.pieces, key=lambda p: p[0])
    if level == "weak":
        return a.atom_dims() == b.atom_dims() and a.total_class == b.total_class
    raise ValueError("level must be 'strong' or 'weak'")
