"""Command-line surface: deterministic table and relation emitters.

Every command is a thin wrapper over the library, and identical invocations
produce byte-identical output: JSON keys are sorted, integers are emitted as
decimal strings in JSON, and lines end with LF.  Exit codes: 0 success,
2 usage error, 3 range error, 4 internal invariant violation.
"""

import argparse
import csv
import io
import json
import sys

from . import blueprint, genseries, torif, treeop
from .motive import MotClass, format_poly

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

    def common(p, fmt=True, basis=False):
        if basis:
            p.add_argument("--basis", choices=["T", "L"], default="T")
        if fmt:
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


def _doc_classes(args):
    if args.space == "mbar0":
        value = genseries.mbar0_class(args.n)
        title = "mbar0 n=%d" % args.n
    else:
        value = genseries.tdn_class(args.d, args.n)
        title = "tdn d=%d n=%d" % (args.d, args.n)
    return {
        "kind": "class",
        "title": title,
        "text": format_poly(value.in_basis(args.basis), args.basis),
        "json": value.to_json(args.basis),
        "rows": [[str(args.n), format_poly(value.in_basis(args.basis), args.basis)]],
        "header": ["n", "class"],
    }


def _doc_points(args):
    if args.space == "mbar0":
        value = genseries.mbar0_class(args.n).count_points(args.m)
    else:
        value = genseries.f1m_count(args.d, args.n, args.m)
    return {
        "kind": "count",
        "text": str(value),
        "json": {"count": str(value), "m": args.m, "n": args.n, "space": args.space},
        "rows": [[str(args.n), str(args.m), str(value)]],
        "header": ["n", "m", "count"],
    }


def _doc_series(args):
    series = genseries.solve_tdn_ode(args.d, args.order)
    rows = [
        [str(n), format_poly(series.coeff(n).in_basis(args.basis), args.basis)]
        for n in range(1, series.order + 1)
    ]
    return {
        "kind": "series",
        "text": "\n".join("b[%s] = %s" % (n, cls) for n, cls in rows),
        "json": series.to_json(args.basis),
        "rows": rows,
        "header": ["n", "class"],
    }


def _doc_strata(args):
    table = treeop.strata_table(args.d, args.n)
    total = MotClass.zero()
    rows = []
    for i, stratum in enumerate(table):
        cls = stratum.stratum_class()
        total = total + cls
        rows.append(
            [
                str(i),
                json.dumps(stratum.tree.to_json(), sort_keys=True, separators=(",", ":")),
                format_poly(cls.in_basis(args.basis), args.basis),
            ]
        )
    oracle = genseries.tdn_class(args.d, args.n)
    if total != oracle:
        raise AssertionError("stratum total disagrees with the class recursion")
    summary = "sum = %s (verified against the recursion)" % format_poly(
        total.in_basis(args.basis), args.basis
    )
    return {
        "kind": "strata",
        "text": "\n".join("%s  %s  %s" % tuple(r) for r in rows) + "\n" + summary,
        "json": {
            "d": args.d,
            "n": args.n,
            "count": len(rows),
            "strata": [{"index": int(r[0]), "tree": json.loads(r[1]), "class": r[2]} for r in rows],
            "sum": total.to_json(args.basis),
            "verified": True,
        },
        "rows": rows + [["sum", "", format_poly(total.in_basis(args.basis), args.basis)]],
        "header": ["index", "tree", "class"],
    }


def _doc_torify(args):
    if args.d < 0:
        raise ValueError("d must be nonnegative")
    if args.n is None:
        ct = torif.torify_proj_space(args.d)
        what = "proj%d" % args.d
    else:
        ct = torif.constructible_open_stratum(args.d, args.n)
        what = "stratum d=%d n=%d" % (args.d, args.n)
    rows = [
        [label, json.dumps(expr.to_json(), sort_keys=True, separators=(",", ":"))]
        for label, expr in ct.pieces
    ]
    cls = format_poly(ct.total_class.coeffs, "T")
    return {
        "kind": "torify",
        "text": "\n".join("%s  %s" % tuple(r) for r in rows) + "\nclass = %s" % cls,
        "json": {"what": what, "pieces": ct.to_json()["pieces"], "class": ct.total_class.to_json()},
        "rows": rows + [["class", cls]],
        "header": ["label", "expr"],
    }


def _doc_blueprint(args):
    rels = blueprint.plucker_relations(args.n)
    rows = [[str(i), str(r)] for i, r in enumerate(rels)]
    return {
        "kind": "blueprint",
        "text": "\n".join(r[1] for r in rows),
        "json": {"n": args.n, "relations": [r.to_json() for r in rels]},
        "rows": rows,
        "header": ["index", "relation"],
    }


def _doc_crossed(args):
    if args.n < 2 * args.g + 1:
        raise ValueError("need n >= 2g + 1 markings")
    group = [blueprint.embed_perm(p, args.n) for p in blueprint.centralizer_subgroup(args.g)]
    rels = blueprint.plucker_relations(args.n)
    pairs = blueprint.crossed_relations(rels, group)
    rows = [[str(i), str(a), str(b)] for i, (a, b) in enumerate(pairs)]
    head = "group order %d, relations %d, crossed pairs %d" % (len(group), len(rels), len(pairs))
    return {
        "kind": "crossed",
        "text": head + "\n" + "\n".join("%s == %s" % (r[1], r[2]) for r in rows),
        "json": {
            "g": args.g,
            "n": args.n,
            "group_order": len(group),
            "pairs": [{"left": a.to_json(), "right": b.to_json()} for a, b in pairs],
        },
        "rows": rows,
        "header": ["index", "left", "right"],
    }


_BUILDERS = {
    "classes": _doc_classes,
    "points": _doc_points,
    "series": _doc_series,
    "strata": _doc_strata,
    "torify": _doc_torify,
    "blueprint": _doc_blueprint,
    "crossed": _doc_crossed,
}


def emit(doc, fmt):
    """Render a document as bytes; identical inputs give identical bytes."""
    if fmt == "json":
        return (json.dumps(doc["json"], sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(doc.get("header", []))
        for row in doc.get("rows", []):
            writer.writerow(row)
        return buf.getvalue().encode()
    if fmt == "text":
        return (doc["text"] + "\n").encode()
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
        doc = _BUILDERS[args.command](args)
        payload = emit(doc, getattr(args, "format", "text"))
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
