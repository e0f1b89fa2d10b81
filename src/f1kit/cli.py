"""Command-line surface: deterministic table and relation emitters.

Every command is a thin wrapper over the library, and identical invocations
produce byte-identical output: JSON keys are sorted, integers are emitted as
decimal strings in JSON, and lines end with LF.  Exit codes: 0 success,
2 usage error, 3 range error, 4 internal invariant violation.

Each command's builder ``_doc_<command>(args, fmt)`` computes only the
document of the requested format: the JSON object for ``json``, the output
string without its final newline for ``text``, and a ``(header, rows)`` pair
for ``csv``, whose cells ``csv.writer`` stringifies.  ``emit(doc, fmt)``
renders that one document as bytes.  JSON comes from f1kit's own writer,
``_render``, byte-identical to ``json.dumps(doc, sort_keys=True, indent=2)``;
any list value may be an iterator, so ``strata``, ``blueprint`` and
``crossed`` hand it generators of rows and no list of row dicts is built.

``classes``, ``points`` and ``series`` read every count and class off
genseries' integer kernel; none runs the MotClass recursion
``solve_tdn_ode``, which is the tests' oracle.
"""

import argparse
import csv
import io
import json
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote

from . import blueprint, genseries, torif, treeop
from .motive import MotClass, _check_int, format_poly

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_INTERNAL = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="f1kit",
        description="exact class computations for moduli of pointed rational curves and their relatives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, basis=False):
        if basis:
            p.add_argument("--basis", choices=["T", "L"], default="T")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("classes", help="emit one class")
    p.add_argument("--space", choices=["mbar0", "tdn"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    common(p, basis=True)

    p = sub.add_parser("points", help="point count over a degree-m extension")
    p.add_argument("--space", choices=["mbar0", "tdn"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    common(p)

    p = sub.add_parser("series", help="series solution of the class differential equation")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--order", type=int, default=10)
    common(p, basis=True)

    p = sub.add_parser("strata", help="stratum table and verified total")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    common(p, basis=True)

    p = sub.add_parser("torify", help="torification pieces of P^d, or of an open stratum with --n")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int)
    common(p)

    p = sub.add_parser("blueprint", help="three-term relations for n markings")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("crossed", help="crossed-product relations for the genus-g boundary model")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    return parser


# -- document builders (pure) -------------------------------------------------


def _poly(value, basis):
    return format_poly(value.in_basis(basis), basis)


def _compact(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _tdn_index(args):
    """(d, n) of the tdn class named by --space, --n and (for tdn) --d."""
    if args.space == "mbar0":
        return genseries._mbar0_as_tdn(args.n)
    return args.d, args.n


def _doc_classes(args, fmt):
    value = genseries.tdn_class(*_tdn_index(args))
    if fmt == "json":
        return value.to_json(args.basis)
    text = _poly(value, args.basis)
    if fmt == "csv":
        return ["n", "class"], [[args.n, text]]
    return text


def _doc_points(args, fmt):
    count = genseries.f1m_count(*_tdn_index(args), args.m)
    if fmt == "json":
        return {"count": str(count), "m": args.m, "n": args.n, "space": args.space}
    if fmt == "csv":
        return ["n", "m", "count"], [[args.n, args.m, count]]
    return str(count)


def _doc_series(args, fmt):
    d, order = _check_int("d", args.d, 1), genseries._check_order(args.order)
    read = genseries._read_off(d, order)  # one kernel pass serves every n
    series = genseries.EGFSeries(read(n) for n in range(1, order + 1))
    if fmt == "json":
        return series.to_json(args.basis)
    rows = [(n, _poly(series.coeff(n), args.basis)) for n in range(1, series.order + 1)]
    if fmt == "csv":
        return ["n", "class"], rows
    return "\n".join("b[%s] = %s" % row for row in rows)


def _doc_strata(args, fmt):
    basis = args.basis
    table = treeop.strata_table(args.d, args.n)
    total = sum((s.stratum_class() for s in table), MotClass.zero())
    if total != genseries.tdn_class(args.d, args.n):
        raise AssertionError("stratum total disagrees with the class recursion")
    entries = ((i, s.tree.to_json(), _poly(s.stratum_class(), basis)) for i, s in enumerate(table))
    if fmt == "json":
        strata = ({"index": i, "tree": tree, "class": cls} for i, tree, cls in entries)
        return dict(d=args.d, n=args.n, count=len(table), strata=strata, sum=total.to_json(basis), verified=True)
    rows = [(i, _compact(tree), cls) for i, tree, cls in entries]
    if fmt == "csv":
        return ["index", "tree", "class"], rows + [("sum", "", _poly(total, basis))]
    body = "\n".join("%s  %s  %s" % row for row in rows)
    return body + "\nsum = %s (verified against the recursion)" % _poly(total, basis)


def _doc_torify(args, fmt):
    if args.n is None:
        ct, what = torif.torify_proj_space(args.d), "proj%d" % args.d
    else:
        ct, what = torif.constructible_open_stratum(args.d, args.n), "stratum d=%d n=%d" % (args.d, args.n)
    if fmt == "json":
        return dict(ct.to_json(), what=what)
    rows = [(label, _compact(expr.to_json())) for label, expr in ct.pieces]
    cls = format_poly(ct.total_class.coeffs, "T")
    if fmt == "csv":
        return ["label", "expr"], rows + [("class", cls)]
    return "\n".join("%s  %s" % row for row in rows) + "\nclass = %s" % cls


def _doc_blueprint(args, fmt):
    rels = blueprint.plucker_relations(args.n)
    if fmt == "json":
        return {"n": args.n, "relations": (r.to_json() for r in rels)}
    if fmt == "csv":
        return ["index", "relation"], list(enumerate(rels))
    return "\n".join(map(str, rels))


def _doc_crossed(args, fmt):
    if args.n < 2 * args.g + 1:
        raise ValueError("need n >= 2g + 1 markings")
    group = [blueprint.embed_perm(p, args.n) for p in blueprint.centralizer_subgroup(args.g)]
    rels = blueprint.plucker_relations(args.n)
    pairs = blueprint.crossed_relations(rels, group)
    if fmt == "json":
        pairs_json = ({"left": a.to_json(), "right": b.to_json()} for a, b in pairs)
        return dict(g=args.g, n=args.n, group_order=len(group), pairs=pairs_json)
    if fmt == "csv":
        return ["index", "left", "right"], [(i, a, b) for i, (a, b) in enumerate(pairs)]
    head = "group order %d, relations %d, crossed pairs %d" % (len(group), len(rels), len(pairs))
    return head + "\n" + "\n".join("%s == %s" % pair for pair in pairs)


_BUILDERS = {
    "classes": _doc_classes,
    "points": _doc_points,
    "series": _doc_series,
    "strata": _doc_strata,
    "torify": _doc_torify,
    "blueprint": _doc_blueprint,
    "crossed": _doc_crossed,
}


def _render(obj, indent):
    """JSON text of obj, as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it at this indent.

    Dicts need str keys; lists, tuples and iterators are arrays, and an
    iterator is consumed one item at a time.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    # Each container joins its brackets, separators and items in one call, so
    # the text of a value is copied once per level, however big it is.
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = ["{\n" + inner]
        for k, v in sorted(obj.items()):
            parts += (_quote(k), ": ", _render(v, inner), sep)
        parts[-1] = "\n" + indent + "}"
        return "".join(parts)
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
    elif isinstance(obj, Iterator):
        kinds = None
    else:
        raise TypeError("cannot render %r as JSON" % (type(obj).__name__,))
    if kinds == {int}:  # a list of only ints or only strs skips the recursion
        items = list(map(int.__repr__, obj))
    elif kinds == {str}:
        items = list(map(_quote, obj))
    else:
        items = [_render(x, inner) for x in obj]
    if not items:
        return "[]"
    items[0] = "[\n" + inner + items[0]
    items[-1] += "\n" + indent + "]"
    return sep.join(items)


def emit(doc, fmt):
    """Render one format's document as bytes; identical inputs give identical bytes.

    JSON comes from f1kit's own writer, byte-identical to
    ``json.dumps(doc, sort_keys=True, indent=2)`` plus a final newline; any
    list value may be an iterator, which is rendered one item at a time.
    """
    if fmt == "json":
        return (_render(doc, "") + "\n").encode()
    if fmt == "csv":
        header, rows = doc
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()
    if fmt == "text":
        return (doc + "\n").encode()
    raise ValueError("unknown format %r" % (fmt,))


def run(argv=None, stdout=None):
    """Parse, dispatch, emit; returns the exit status."""
    stdout = stdout if stdout is not None else sys.stdout.buffer
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        doc = _BUILDERS[args.command](args, args.format)
        payload = emit(doc, args.format)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RANGE
    except Exception as exc:  # invariant violations and the unexpected
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    stdout.write(payload)
    stdout.flush()
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
